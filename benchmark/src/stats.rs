//! Order statistics over timing samples.

/// The `p`-th percentile (0–100) of `samples` by linear interpolation
/// between closest ranks; 0.0 for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (p / 100.0).clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Median of `samples`; 0.0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0)
}

/// Windows a run's samples are cut into.
const WINDOWS: usize = 32;

/// `samples` cut into at most [`WINDOWS`] runs of consecutive samples,
/// as even as they come.
fn windows<T>(samples: &[T]) -> impl Iterator<Item = &[T]> {
    let n = WINDOWS.min(samples.len());
    (0..n).map(move |w| &samples[w * samples.len() / n..(w + 1) * samples.len() / n])
}

fn ratio_of_sums(rounds: &[(f64, f64)]) -> f64 {
    let (num, den) = rounds
        .iter()
        .fold((0.0, 0.0), |(num, den), r| (num + r.0, den + r.1));
    num / den
}

/// The median of the quietest stretch of a run: `samples`, in time
/// order, are cut into windows; each window's median; the lowest.
///
/// On a shared host identical code runs up to half again as slow for
/// seconds or minutes at a time, and never faster than the code allows:
/// the noise is one-sided. The median of a whole run moves with how much
/// of the run such stretches covered (spreads of 18–27 % over 24 runs of
/// three workloads, README.md "Noise"); the quietest window's median
/// repeats (7–12 % over the same runs), and a change to the code moves
/// every window, this one too. 0.0 for no samples.
pub fn quiet_median(samples: &[f64]) -> f64 {
    windows(samples).map(median).reduce(f64::min).unwrap_or(0.0)
}

/// Work per second in the quietest stretch of a run, on the same
/// reasoning as [`quiet_median`]: `rounds` are (work done, seconds spent
/// on it) in time order; each window's rate; the highest. 0.0 for no
/// rounds.
pub fn quiet_rate(rounds: &[(f64, f64)]) -> f64 {
    windows(rounds)
        .map(ratio_of_sums)
        .reduce(f64::max)
        .unwrap_or(0.0)
}

/// A ratio of two sums over a run — (time with, time without) of the
/// same work, in time order — as the median of the windows' ratios. Both
/// sides of a pair see the same noise, so there is no quiet side to
/// pick; the median drops the windows where a burst hit one side only.
/// 0.0 for no rounds.
pub fn windowed_ratio(rounds: &[(f64, f64)]) -> f64 {
    median(&windows(rounds).map(ratio_of_sums).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles_on_known_vectors() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        let v: Vec<f64> = (1..=101).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 90.0), 91.0);
        assert_eq!(percentile(&v, 100.0), 101.0);
        // Interpolates between ranks: 10 samples, p90 sits at rank 8.1.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((percentile(&v, 90.0) - 9.1).abs() < 1e-12);
    }

    #[test]
    fn the_quiet_statistics_ignore_slow_stretches() {
        assert_eq!(quiet_median(&[]), 0.0);
        assert_eq!(quiet_rate(&[]), 0.0);
        assert_eq!(windowed_ratio(&[]), 0.0);
        assert_eq!(quiet_median(&[4.0]), 4.0);
        assert_eq!(quiet_rate(&[(3.0, 1.5)]), 2.0);
        // 128 operations of 1 ms and 3 ms alternating (median 2), three
        // quarters of the run three times slower: the whole-run median
        // is 3 ms, the quiet stretch still reads 2 ms.
        let mut op_ms: Vec<f64> = (0..128).map(|i| if i % 2 == 0 { 1.0 } else { 3.0 }).collect();
        for ms in &mut op_ms[32..] {
            *ms *= 3.0;
        }
        assert_eq!(median(&op_ms), 3.0);
        assert_eq!(quiet_median(&op_ms), 2.0);
        // The same for a rate: 10/s where it is quiet, a third of that
        // elsewhere.
        let mut rounds = vec![(1.0, 0.1); 128];
        for r in &mut rounds[32..] {
            r.1 = 0.3;
        }
        assert!((quiet_rate(&rounds) - 10.0).abs() < 1e-9);
        // A ratio takes the median window, and windows hold whole rounds
        // even when they do not divide evenly.
        let mut pairs = vec![(3.0, 2.0); 77];
        pairs[5].0 = 30.0;
        assert!((windowed_ratio(&pairs) - 1.5).abs() < 1e-12);
    }
}
