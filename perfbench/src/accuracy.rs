//! Accuracy and passivity of a reduced model, checked outside every
//! timed region: the reduced `Y(j2πf)` against the exact admittance of
//! the network it reduces, at a few in-band frequencies.

use pact::{Partitions, ReducedModel};
use pact_netlist::RcNetwork;
use pact_sparse::{Complex64, CscPencil, LuCache, Ordering};

use crate::pipeline::Models;

/// In-band check frequencies as fractions of `f_max`: the lowest, the
/// middle and the highest in-band point of the 25-point grid
/// `rcfit --verify` samples (`f_max/100` to `2·f_max`, log-spaced), so
/// the pass rule below is the `VerificationReport::passes` rule on a
/// subset of its own grid.
fn band() -> impl Iterator<Item = f64> {
    (0..=20)
        .step_by(10)
        .map(|k| 0.01 * 200f64.powf(f64::from(k) / 24.0))
}

/// Most port columns compared exactly; larger models compare an evenly
/// spaced fixed subset (exact columns cost one sparse solve each).
pub const MAX_COLUMNS: usize = 16;

/// Passivity tolerance on the smallest eigenvalue of each reduced
/// matrix (the `VerificationReport::passes` rule).
pub const PASSIVITY_FLOOR: f64 = -1e-9;

/// Worst in-band error and passivity margins of one model.
#[derive(Clone, Copy, Debug)]
pub struct Accuracy {
    /// Largest `|Y_red − Y_exact|` entry over the compared columns,
    /// relative to the largest exact entry at that frequency.
    pub inband_err: f64,
    /// Smallest eigenvalues of the reduced `(G, C)` pair.
    pub margins: (f64, f64),
}

impl Accuracy {
    /// Why the model fails: not within `1.5 × tolerance`, or not
    /// passive. `None` when it passes.
    pub fn failure(&self, tolerance: f64) -> Option<&'static str> {
        if self.inband_err > 1.5 * tolerance {
            Some("in-band error above 1.5 × tolerance")
        } else if self.margins.0.min(self.margins.1) < PASSIVITY_FLOOR {
            Some("passivity margin below -1e-9")
        } else {
            None
        }
    }
}

/// The fixed port columns compared for an `m`-port model.
pub fn columns(m: usize) -> Vec<usize> {
    if m <= MAX_COLUMNS {
        (0..m).collect()
    } else {
        (0..MAX_COLUMNS).map(|k| k * m / MAX_COLUMNS).collect()
    }
}

/// Compares `model` against the exact admittance of `net` at the
/// in-band frequencies, on the columns from [`columns`].
///
/// # Errors
///
/// A message when the exact pencil is singular or the passivity
/// eigensolve fails.
pub fn check(net: &RcNetwork, model: &ReducedModel, f_max: f64) -> Result<Accuracy, String> {
    let parts = Partitions::split(&net.stamp());
    let (m, n) = (parts.m, parts.n);
    let cols = columns(m);
    // The LU factors in the order given, so relabel the internal nodes
    // by a fill-reducing ordering of D first: `at[i]` is node i's label.
    let perm = Ordering::NestedDissection.permutation(&parts.d);
    let mut at = vec![0; n];
    for (k, &i) in perm.iter().enumerate() {
        at[i] = k;
    }
    let at = &at;
    let triplets = |a: &pact_sparse::CsrMat| -> Vec<(usize, usize, f64)> {
        (0..n)
            .flat_map(|i| a.row_iter(i).map(move |(j, v)| (at[i], at[j], v)))
            .collect()
    };
    let pencil = CscPencil::from_triplets(n, &triplets(&parts.d), &triplets(&parts.e));
    let (qt, rt) = (parts.q.transpose(), parts.r.transpose());
    let mut lu_cache = LuCache::new();
    let mut worst = 0.0f64;
    for frac in band() {
        let f = frac * f_max;
        let s = Complex64::new(0.0, 2.0 * std::f64::consts::PI * f);
        // x_c = (D + sE)⁻¹ (Q + sR) e_j for each compared column j.
        let mut block = vec![Complex64::ZERO; n * cols.len()];
        for (c, &j) in cols.iter().enumerate() {
            let x = &mut block[c * n..(c + 1) * n];
            for (i, v) in qt.row_iter(j) {
                x[at[i]] += Complex64::from_real(v);
            }
            for (i, v) in rt.row_iter(j) {
                x[at[i]] += s.scale(v);
            }
        }
        if n > 0 {
            let (lu, _) = lu_cache
                .factor(&pencil.eval(s.im))
                .map_err(|e| e.to_string())?;
            lu.solve_block_in_place(&mut block, &mut Vec::new());
        }
        // Y(:, j) = (A + sB) e_j − (Q + sR)ᵀ x_j; A and B are symmetric,
        // so row j gives column j.
        let yr = model.y_at(f);
        let mut exact = vec![Complex64::ZERO; m * cols.len()];
        for (c, &j) in cols.iter().enumerate() {
            let y = &mut exact[c * m..(c + 1) * m];
            for (i, v) in parts.a.row_iter(j) {
                y[i] += Complex64::from_real(v);
            }
            for (i, v) in parts.b.row_iter(j) {
                y[i] += s.scale(v);
            }
            let x = &block[c * n..(c + 1) * n];
            for (i, yi) in y.iter_mut().enumerate() {
                let mut acc = Complex64::ZERO;
                for (row, v) in qt.row_iter(i) {
                    acc += x[at[row]].scale(v);
                }
                for (row, v) in rt.row_iter(i) {
                    acc += (s * x[at[row]]).scale(v);
                }
                *yi -= acc;
            }
        }
        let scale = exact
            .iter()
            .map(|v| v.abs())
            .fold(0.0, f64::max)
            .max(1e-300);
        for (c, &j) in cols.iter().enumerate() {
            for i in 0..m {
                let d = (yr[(i, j)] - exact[c * m + i]).abs() / scale;
                worst = worst.max(d);
            }
        }
    }
    let margins = model.passivity_margins().map_err(|e| e.to_string())?;
    Ok(Accuracy {
        inband_err: worst,
        margins,
    })
}

/// The check of every model one deck produced.
#[derive(Clone, Debug)]
pub struct Verdict {
    /// Worst in-band error over the models.
    pub inband_err: f64,
    /// Smallest passivity margin over the models.
    pub margin: f64,
    /// Why a model failed, or `None` when every model passes.
    pub failure: Option<String>,
}

impl Verdict {
    /// One line for the report.
    pub fn describe(&self, tolerance: f64) -> String {
        format!(
            "in-band error {:.4e} (limit {:.3}), smallest passivity margin {:.3e}{}",
            self.inband_err,
            1.5 * tolerance,
            self.margin,
            self.failure
                .as_ref()
                .map_or(String::new(), |f| format!(": FAILED ({f})"))
        )
    }
}

/// Checks every model of a deck reduced at `f_max` to `tolerance`.
pub fn check_models(models: &Models, f_max: f64, tolerance: f64) -> Verdict {
    let mut v = Verdict {
        inband_err: 0.0,
        margin: f64::INFINITY,
        failure: None,
    };
    for (net, model) in &models.parts {
        match check(net, model, f_max) {
            Ok(acc) => {
                v.inband_err = v.inband_err.max(acc.inband_err);
                v.margin = v.margin.min(acc.margins.0.min(acc.margins.1));
                if let Some(f) = acc.failure(tolerance) {
                    v.failure.get_or_insert_with(|| f.to_owned());
                }
            }
            Err(e) => {
                v.failure.get_or_insert(e);
            }
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use pact::{reduce_network, CutoffSpec, ReduceOptions};
    use pact_netlist::{extract_rc, parse};

    fn ladder() -> RcNetwork {
        let mut deck = String::from("* l\nV1 p0 0 1\nM1 q pN 0 0 n\n.model n nmos()\n");
        for i in 0..40 {
            let a = if i == 0 { "p0".into() } else { format!("n{i}") };
            let b = if i == 39 {
                "pN".into()
            } else {
                format!("n{}", i + 1)
            };
            deck.push_str(&format!("R{i} {a} {b} 6.25\nC{i} {b} 0 33.75f\n"));
        }
        extract_rc(&parse(&deck).unwrap(), &[]).unwrap().network
    }

    #[test]
    fn good_model_passes_and_a_crippled_one_fails() {
        let net = ladder();
        let spec = CutoffSpec::new(3e9, 0.05).unwrap();
        let red = reduce_network(&net, &ReduceOptions::new(spec)).unwrap();
        let acc = check(&net, &red.model, 3e9).unwrap();
        assert_eq!(acc.failure(0.05), None, "{acc:?}");
        let mut crippled = red.model.clone();
        crippled.lambdas.clear();
        crippled.r2 = pact_sparse::DMat::zeros(0, crippled.num_ports());
        let bad = check(&net, &crippled, 3e9).unwrap();
        assert!(bad.failure(0.05).is_some(), "{bad:?}");
    }

    #[test]
    fn large_models_compare_a_fixed_column_subset() {
        assert_eq!(columns(3), vec![0, 1, 2]);
        let c = columns(469);
        assert_eq!(c.len(), MAX_COLUMNS);
        assert_eq!(c[0], 0);
        assert!(c.windows(2).all(|w| w[0] < w[1]) && c[MAX_COLUMNS - 1] < 469);
    }
}
