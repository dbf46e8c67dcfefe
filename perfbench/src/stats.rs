//! Order statistics over samples: percentiles and medians.
//!
//! Every end-to-end figure the benchmark prints is a median across many
//! short rounds (or a percentile across many requests), never one long
//! timed phase, so run-to-run machine noise averages out inside a run.

/// The `p`-th percentile (0 ≤ p ≤ 100) of `samples` by linear
/// interpolation between closest ranks. Returns `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * frac)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

/// Per-round rates folded into one figure: each round contributes
/// `amount / seconds`, and the result is the median across rounds.
pub fn median_rate(rounds: &[(f64, f64)]) -> Option<f64> {
    let rates: Vec<f64> = rounds
        .iter()
        .filter(|(_, secs)| *secs > 0.0)
        .map(|(amount, secs)| amount / secs)
        .collect();
    median(&rates)
}

/// Samples per block for [`blocked_p99`]: enough that ten lie beyond
/// each block's 99th percentile.
pub const P99_BLOCK: usize = 1000;

/// The 99th percentile of each block of [`P99_BLOCK`] consecutive
/// samples, then the median across blocks: one stalled stretch of the
/// run moves one block's tail, not the reported figure. `None` with
/// fewer samples than one block.
pub fn blocked_p99(samples: &[f64]) -> Option<f64> {
    let tails: Vec<f64> = samples
        .chunks_exact(P99_BLOCK)
        .filter_map(|b| percentile(b, 99.0))
        .collect();
    median(&tails)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let s = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(percentile(&s, 0.0), Some(1.0));
        assert_eq!(percentile(&s, 100.0), Some(5.0));
        assert_eq!(percentile(&s, 50.0), Some(3.0));
        assert_eq!(percentile(&s, 25.0), Some(2.0));
        assert_eq!(percentile(&[1.0, 2.0], 50.0), Some(1.5));
        assert_eq!(percentile(&[], 50.0), None);
        let many: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p99 = percentile(&many, 99.0).unwrap();
        assert!((p99 - 990.01).abs() < 1e-9, "{p99}");
    }

    #[test]
    fn median_across_rounds_ignores_one_slow_round() {
        // five rounds of 10 MB; one stalled round must not move the median
        let rounds = [
            (10.0, 1.0),
            (10.0, 1.1),
            (10.0, 0.9),
            (10.0, 9.0),
            (10.0, 1.0),
        ];
        assert_eq!(median_rate(&rounds), Some(10.0));
        assert_eq!(median_rate(&[(1.0, 0.0)]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0, 100.0]), Some(2.5));
    }

    #[test]
    fn blocked_p99_takes_the_median_block_tail() {
        let mut s: Vec<f64> = (0..3 * P99_BLOCK).map(|i| (i % P99_BLOCK) as f64).collect();
        // a stall inflates the tail of the middle block only
        for x in &mut s[P99_BLOCK..P99_BLOCK + 50] {
            *x = 1e6;
        }
        let p = blocked_p99(&s).unwrap();
        assert!(
            (p - percentile(&s[..P99_BLOCK], 99.0).unwrap()).abs() < 1e-9,
            "{p}"
        );
        assert_eq!(blocked_p99(&s[..P99_BLOCK - 1]), None);
    }
}
