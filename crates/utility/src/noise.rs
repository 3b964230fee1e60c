//! Zero-mean noise distributions `N(i) ~ D_i`.
//!
//! The paper allows any zero-mean distribution per item (§3). The
//! *truncated utility* machinery (§5) needs `E[max(0, μ + N)]` — the
//! expected positive part of a shifted noise draw — which we provide in
//! closed form for every supported distribution. The superior-item
//! condition of SupGRD additionally needs *bounded* noise (§5.3 condition
//! (i); §6 notes "a practical way to bound the noise"), exposed via
//! [`NoiseDist::max_abs`].

use rand::Rng;
use serde::{Deserialize, Serialize};
use std::hash::{Hash, Hasher};

/// A zero-mean noise distribution attached to one item.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum NoiseDist {
    /// No noise: the deterministic utility configurations (Theorem 1/2
    /// gadgets, Table 4, Table 5).
    None,
    /// Gaussian `N(0, std²)` — the paper's default `N(0,1)` for C1–C4.
    Normal { std: f64 },
    /// Uniform on `[-half_width, half_width]` — bounded, used for the
    /// superior-item configurations C5/C6.
    Uniform { half_width: f64 },
    /// Gaussian truncated (by rejection) to `[-bound, bound]` — the
    /// "practical way to bound the noise" while keeping a bell shape.
    TruncatedNormal { std: f64, bound: f64 },
}

impl NoiseDist {
    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl Rng) -> f64 {
        match *self {
            NoiseDist::None => 0.0,
            NoiseDist::Normal { std } => std * sample_standard_normal(rng),
            NoiseDist::Uniform { half_width } => rng.gen_range(-half_width..=half_width),
            NoiseDist::TruncatedNormal { std, bound } => {
                debug_assert!(bound > 0.0);
                loop {
                    let x = std * sample_standard_normal(rng);
                    if x.abs() <= bound {
                        return x;
                    }
                }
            }
        }
    }

    /// `E[max(0, mu + N)]` — the expected truncated utility of an item with
    /// deterministic utility `mu`.
    pub fn expected_positive_part(&self, mu: f64) -> f64 {
        match *self {
            NoiseDist::None => mu.max(0.0),
            NoiseDist::Normal { std } => {
                if std <= 0.0 {
                    return mu.max(0.0);
                }
                // E[max(0, mu + sZ)] = mu·Φ(mu/s) + s·φ(mu/s)
                let z = mu / std;
                mu * std_normal_cdf(z) + std * std_normal_pdf(z)
            }
            NoiseDist::Uniform { half_width: w } => {
                if w <= 0.0 {
                    return mu.max(0.0);
                }
                if mu >= w {
                    mu
                } else if mu <= -w {
                    0.0
                } else {
                    // ∫_{-mu}^{w} (mu + x) / (2w) dx = (mu + w)² / (4w)
                    (mu + w).powi(2) / (4.0 * w)
                }
            }
            NoiseDist::TruncatedNormal { std, bound } => {
                if std <= 0.0 || bound <= 0.0 {
                    return mu.max(0.0);
                }
                // numeric integration of max(0, mu + x) against the
                // renormalized N(0, std²) density on [-bound, bound];
                // Simpson's rule with enough panels for ~1e-8 accuracy
                let z_mass = std_normal_cdf(bound / std) - std_normal_cdf(-bound / std);
                let f = |x: f64| (mu + x).max(0.0) * std_normal_pdf(x / std) / (std * z_mass);
                simpson(f, -bound, bound, 4096)
            }
        }
    }

    /// Feed the variant and its parameters' bit patterns to `h` (see
    /// `UtilityModel::hash_bits`).
    pub(crate) fn hash_bits(&self, h: &mut impl Hasher) {
        let (tag, a, b) = match *self {
            NoiseDist::None => (0u8, 0.0, 0.0),
            NoiseDist::Normal { std } => (1, std, 0.0),
            NoiseDist::Uniform { half_width } => (2, half_width, 0.0),
            NoiseDist::TruncatedNormal { std, bound } => (3, std, bound),
        };
        (tag, a.to_bits(), b.to_bits()).hash(h);
    }

    /// An upper bound on `|N|`, if the distribution is bounded. `None` for
    /// unbounded noise (which rules out the superior-item condition).
    pub fn max_abs(&self) -> Option<f64> {
        match *self {
            NoiseDist::None => Some(0.0),
            NoiseDist::Normal { std } => {
                if std == 0.0 {
                    Some(0.0)
                } else {
                    None
                }
            }
            NoiseDist::Uniform { half_width } => Some(half_width),
            NoiseDist::TruncatedNormal { bound, .. } => Some(bound),
        }
    }

    /// True iff the distribution is the degenerate point mass at 0.
    pub fn is_zero(&self) -> bool {
        matches!(self.max_abs(), Some(b) if b == 0.0)
    }
}

/// Box–Muller standard normal sampling.
fn sample_standard_normal(rng: &mut impl Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Standard normal pdf φ(z).
pub fn std_normal_pdf(z: f64) -> f64 {
    (-0.5 * z * z).exp() / (std::f64::consts::TAU).sqrt()
}

/// Standard normal cdf Φ(z) via the Abramowitz–Stegun erf approximation
/// (absolute error < 1.5e-7).
pub fn std_normal_cdf(z: f64) -> f64 {
    0.5 * (1.0 + erf(z / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // A&S formula 7.1.26
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Composite Simpson's rule on `[a, b]` with `panels` (even) intervals.
fn simpson(f: impl Fn(f64) -> f64, a: f64, b: f64, panels: usize) -> f64 {
    let n = if panels.is_multiple_of(2) {
        panels
    } else {
        panels + 1
    };
    let h = (b - a) / n as f64;
    let mut acc = f(a) + f(b);
    for k in 1..n {
        let w = if k % 2 == 1 { 4.0 } else { 2.0 };
        acc += w * f(a + k as f64 * h);
    }
    acc * h / 3.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn mc_expected_positive(d: NoiseDist, mu: f64, n: usize) -> f64 {
        let mut rng = SmallRng::seed_from_u64(12345);
        (0..n)
            .map(|_| (mu + d.sample(&mut rng)).max(0.0))
            .sum::<f64>()
            / n as f64
    }

    #[test]
    fn none_is_relu() {
        assert_eq!(NoiseDist::None.expected_positive_part(2.5), 2.5);
        assert_eq!(NoiseDist::None.expected_positive_part(-1.0), 0.0);
        assert_eq!(NoiseDist::None.expected_positive_part(0.0), 0.0);
    }

    #[test]
    fn normal_matches_known_value_at_zero() {
        // E[max(0, Z)] = 1/sqrt(2π) ≈ 0.3989
        let d = NoiseDist::Normal { std: 1.0 };
        assert!((d.expected_positive_part(0.0) - 0.39894228).abs() < 1e-6);
    }

    #[test]
    fn normal_analytic_matches_monte_carlo() {
        let d = NoiseDist::Normal { std: 1.0 };
        for &mu in &[-2.0, -0.5, 0.0, 0.9, 1.0, 3.0] {
            let analytic = d.expected_positive_part(mu);
            let mc = mc_expected_positive(d, mu, 400_000);
            assert!(
                (analytic - mc).abs() < 5e-3,
                "mu={mu}: analytic {analytic} vs mc {mc}"
            );
        }
    }

    #[test]
    fn uniform_analytic_matches_monte_carlo() {
        let d = NoiseDist::Uniform { half_width: 0.4 };
        for &mu in &[-1.0, -0.2, 0.0, 0.3, 0.39, 1.0] {
            let analytic = d.expected_positive_part(mu);
            let mc = mc_expected_positive(d, mu, 400_000);
            assert!(
                (analytic - mc).abs() < 5e-3,
                "mu={mu}: analytic {analytic} vs mc {mc}"
            );
        }
    }

    #[test]
    fn truncated_normal_matches_monte_carlo() {
        let d = NoiseDist::TruncatedNormal {
            std: 1.0,
            bound: 1.5,
        };
        for &mu in &[-1.0, 0.0, 0.7, 2.0] {
            let analytic = d.expected_positive_part(mu);
            let mc = mc_expected_positive(d, mu, 400_000);
            assert!(
                (analytic - mc).abs() < 5e-3,
                "mu={mu}: analytic {analytic} vs mc {mc}"
            );
        }
    }

    #[test]
    fn samples_respect_bounds() {
        let mut rng = SmallRng::seed_from_u64(9);
        let u = NoiseDist::Uniform { half_width: 0.25 };
        let t = NoiseDist::TruncatedNormal {
            std: 2.0,
            bound: 0.5,
        };
        for _ in 0..10_000 {
            assert!(u.sample(&mut rng).abs() <= 0.25);
            assert!(t.sample(&mut rng).abs() <= 0.5);
        }
    }

    #[test]
    fn samples_have_zero_mean() {
        let mut rng = SmallRng::seed_from_u64(77);
        for d in [
            NoiseDist::Normal { std: 1.0 },
            NoiseDist::Uniform { half_width: 1.0 },
            NoiseDist::TruncatedNormal {
                std: 1.0,
                bound: 2.0,
            },
        ] {
            let n = 200_000;
            let mean: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!(mean.abs() < 0.01, "{d:?} mean {mean}");
        }
    }

    #[test]
    fn max_abs() {
        assert_eq!(NoiseDist::None.max_abs(), Some(0.0));
        assert_eq!(NoiseDist::Normal { std: 1.0 }.max_abs(), None);
        assert_eq!(NoiseDist::Uniform { half_width: 0.3 }.max_abs(), Some(0.3));
        assert_eq!(
            NoiseDist::TruncatedNormal {
                std: 1.0,
                bound: 2.0
            }
            .max_abs(),
            Some(2.0)
        );
    }

    #[test]
    fn cdf_sanity() {
        assert!((std_normal_cdf(0.0) - 0.5).abs() < 1e-9);
        assert!((std_normal_cdf(1.96) - 0.975).abs() < 1e-3);
        assert!((std_normal_cdf(-1.96) - 0.025).abs() < 1e-3);
    }

    #[test]
    fn expected_positive_is_monotone_in_mu() {
        for d in [
            NoiseDist::None,
            NoiseDist::Normal { std: 0.7 },
            NoiseDist::Uniform { half_width: 0.4 },
        ] {
            let mut prev = d.expected_positive_part(-3.0);
            let mut mu = -3.0;
            while mu < 3.0 {
                mu += 0.1;
                let cur = d.expected_positive_part(mu);
                assert!(cur + 1e-12 >= prev, "{d:?} not monotone at mu={mu}");
                prev = cur;
            }
        }
    }
}
