//! Least-squares curve fitting and model selection.
//!
//! The paper (Section 5.2.2) fits three candidate models to the cut-width
//! versus circuit-size scatter — linear `y = a·x + b`, logarithmic
//! `y = a·ln(x) + b` and power `y = a·x^b` — and reports that the
//! logarithmic curve "proved to give the best least-squares fit". This
//! crate reproduces that methodology: [`fit_all`] fits the three models
//! and [`best_fit`] selects the lowest-SSE one.
//!
//! # Example
//!
//! ```
//! use atpg_easy_fit::{best_fit, Model};
//!
//! // Perfectly logarithmic data.
//! let pts: Vec<(f64, f64)> = (1..200)
//!     .map(|i| (i as f64, 3.0 * (i as f64).ln() + 1.0))
//!     .collect();
//! let fit = best_fit(&pts).expect("enough points");
//! assert_eq!(fit.model, Model::Logarithmic);
//! ```

#![forbid(unsafe_code)]

use std::fmt;

/// The candidate model families of the paper's Section 5.2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Model {
    /// `y = a·x + b`
    Linear,
    /// `y = a·ln(x) + b`
    Logarithmic,
    /// `y = a·x^b` (fit on log–log axes)
    Power,
}

impl Model {
    /// All candidate models, in a fixed order.
    pub const ALL: [Model; 3] = [Model::Linear, Model::Logarithmic, Model::Power];
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Model::Linear => write!(f, "linear"),
            Model::Logarithmic => write!(f, "log"),
            Model::Power => write!(f, "power"),
        }
    }
}

/// A fitted curve: the model family, its two parameters, and its
/// goodness-of-fit on the input data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fit {
    /// Model family.
    pub model: Model,
    /// The multiplicative / slope parameter `a`.
    pub a: f64,
    /// The offset / exponent parameter `b`.
    pub b: f64,
    /// Sum of squared residuals in the original `y` space.
    pub sse: f64,
    /// Coefficient of determination in the original `y` space.
    pub r_squared: f64,
}

impl Fit {
    /// Evaluates the fitted curve at `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x <= 0` for logarithmic or power models.
    pub fn predict(&self, x: f64) -> f64 {
        match self.model {
            Model::Linear => self.a * x + self.b,
            Model::Logarithmic => {
                assert!(x > 0.0, "logarithm needs positive x");
                self.a * x.ln() + self.b
            }
            Model::Power => {
                assert!(x > 0.0, "power fit needs positive x");
                self.a * x.powf(self.b)
            }
        }
    }
}

impl fmt::Display for Fit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.model {
            Model::Linear => write!(f, "y = {:.4}·x + {:.4}", self.a, self.b),
            Model::Logarithmic => write!(f, "y = {:.4}·ln(x) + {:.4}", self.a, self.b),
            Model::Power => write!(f, "y = {:.4}·x^{:.4}", self.a, self.b),
        }?;
        write!(f, "  (SSE {:.3}, R² {:.4})", self.sse, self.r_squared)
    }
}

/// Ordinary least squares on transformed coordinates, returning `(a, b)`
/// for `v = a·u + b`.
fn ols(uv: impl Iterator<Item = (f64, f64)> + Clone) -> Option<(f64, f64)> {
    let n = uv.clone().count() as f64;
    if n < 2.0 {
        return None;
    }
    let (mut su, mut sv, mut suu, mut suv) = (0.0, 0.0, 0.0, 0.0);
    for (u, v) in uv {
        su += u;
        sv += v;
        suu += u * u;
        suv += u * v;
    }
    let denom = n * suu - su * su;
    if denom.abs() < 1e-12 {
        return None;
    }
    let a = (n * suv - su * sv) / denom;
    let b = (sv - a * su) / n;
    Some((a, b))
}

fn goodness(points: &[(f64, f64)], predict: impl Fn(f64) -> f64) -> (f64, f64) {
    let mean = points.iter().map(|p| p.1).sum::<f64>() / points.len() as f64;
    let mut sse = 0.0;
    let mut sst = 0.0;
    for &(x, y) in points {
        let r = y - predict(x);
        sse += r * r;
        sst += (y - mean) * (y - mean);
    }
    let r2 = if sst < 1e-12 { 1.0 } else { 1.0 - sse / sst };
    (sse, r2)
}

/// Fits one model family to the data.
///
/// Logarithmic and power fits ignore points with `x ≤ 0` (and `y ≤ 0` for
/// power); returns `None` if fewer than two usable points remain or the
/// data is degenerate (zero variance in the regressor).
pub fn fit_model(points: &[(f64, f64)], model: Model) -> Option<Fit> {
    let (a, b) = match model {
        Model::Linear => ols(points.iter().copied())?,
        Model::Logarithmic => {
            let t = points
                .iter()
                .filter(|p| p.0 > 0.0)
                .map(|&(x, y)| (x.ln(), y))
                .collect::<Vec<_>>();
            ols(t.iter().copied())?
        }
        Model::Power => {
            let t = points
                .iter()
                .filter(|p| p.0 > 0.0 && p.1 > 0.0)
                .map(|&(x, y)| (x.ln(), y.ln()))
                .collect::<Vec<_>>();
            // v = ln y = b·ln x + ln a
            let (slope, intercept) = ols(t.iter().copied())?;
            let fit_a = intercept.exp();
            let (sse, r2) = goodness(points, |x| fit_a * x.powf(slope));
            return Some(Fit {
                model,
                a: fit_a,
                b: slope,
                sse,
                r_squared: r2,
            });
        }
    };
    let predict = move |x: f64| match model {
        Model::Linear => a * x + b,
        Model::Logarithmic => a * x.max(f64::MIN_POSITIVE).ln() + b,
        Model::Power => unreachable!("handled above"),
    };
    let (sse, r2) = goodness(points, predict);
    Some(Fit {
        model,
        a,
        b,
        sse,
        r_squared: r2,
    })
}

/// Fits all three model families (models that cannot be fit are omitted).
pub fn fit_all(points: &[(f64, f64)]) -> Vec<Fit> {
    Model::ALL
        .iter()
        .filter_map(|&m| fit_model(points, m))
        .collect()
}

/// The lowest-SSE fit among the three families, or `None` when no family
/// fits (fewer than two usable points).
pub fn best_fit(points: &[(f64, f64)]) -> Option<Fit> {
    fit_all(points)
        .into_iter()
        .min_by(|a, b| a.sse.partial_cmp(&b.sse).expect("SSE is finite"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth(f: impl Fn(f64) -> f64, n: usize) -> Vec<(f64, f64)> {
        (1..=n).map(|i| (i as f64, f(i as f64))).collect()
    }

    #[test]
    fn recovers_linear() {
        let pts = synth(|x| 2.5 * x - 3.0, 100);
        let fit = fit_model(&pts, Model::Linear).unwrap();
        assert!((fit.a - 2.5).abs() < 1e-9);
        assert!((fit.b + 3.0).abs() < 1e-9);
        assert!(fit.r_squared > 0.999999);
        assert_eq!(best_fit(&pts).unwrap().model, Model::Linear);
    }

    #[test]
    fn recovers_logarithmic() {
        let pts = synth(|x| 4.0 * x.ln() + 1.5, 200);
        let fit = fit_model(&pts, Model::Logarithmic).unwrap();
        assert!((fit.a - 4.0).abs() < 1e-9);
        assert!((fit.b - 1.5).abs() < 1e-9);
        assert_eq!(best_fit(&pts).unwrap().model, Model::Logarithmic);
    }

    #[test]
    fn recovers_power() {
        let pts = synth(|x| 0.5 * x.powf(1.7), 100);
        let fit = fit_model(&pts, Model::Power).unwrap();
        assert!((fit.a - 0.5).abs() < 1e-6, "{fit}");
        assert!((fit.b - 1.7).abs() < 1e-9);
        assert_eq!(best_fit(&pts).unwrap().model, Model::Power);
    }

    #[test]
    fn log_beats_linear_and_power_on_noisy_log_data() {
        // Deterministic pseudo-noise on a log curve — the Figure-8 shape.
        let pts: Vec<(f64, f64)> = (2..500)
            .map(|i| {
                let x = i as f64;
                let noise = ((i * 2654435761u64 as usize) % 100) as f64 / 100.0 - 0.5;
                (x, 3.0 * x.ln() + 2.0 + noise)
            })
            .collect();
        assert_eq!(best_fit(&pts).unwrap().model, Model::Logarithmic);
    }

    #[test]
    fn predict_matches_formula() {
        let fit = Fit {
            model: Model::Power,
            a: 2.0,
            b: 0.5,
            sse: 0.0,
            r_squared: 1.0,
        };
        assert!((fit.predict(16.0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_data_returns_none() {
        assert!(fit_model(&[(1.0, 1.0)], Model::Linear).is_none());
        assert!(fit_model(&[(2.0, 1.0), (2.0, 3.0)], Model::Linear).is_none());
        assert!(best_fit(&[]).is_none());
    }

    #[test]
    fn nonpositive_points_filtered_for_log_models() {
        let mut pts = synth(|x| 2.0 * x.ln(), 50);
        pts.push((0.0, 100.0));
        pts.push((-5.0, 3.0));
        let fit = fit_model(&pts, Model::Logarithmic).unwrap();
        assert!((fit.a - 2.0).abs() < 1.0, "filtered fit stays close: {fit}");
    }

    #[test]
    fn display_formats() {
        let pts = synth(|x| x, 10);
        let fit = fit_model(&pts, Model::Linear).unwrap();
        assert!(fit.to_string().contains("y = "));
        assert!(Model::Logarithmic.to_string() == "log");
    }
}
