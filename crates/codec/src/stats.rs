//! Encoding statistics: the quantities plotted in Fig 2 (short-code
//! percentage) and Fig 4 (lossless vs lossy fraction), plus the average
//! bit-width reported in Tables IV and V.


use crate::code::SparkCode;

/// Running statistics over a stream of encoded values.
///
/// ```
/// use spark_codec::{CodeStats, SparkCode};
/// let mut stats = CodeStats::default();
/// stats.record(5, SparkCode::encode(5));    // short, lossless
/// stats.record(18, SparkCode::encode(18));  // long, lossy (18 -> 15)
/// assert_eq!(stats.total(), 2);
/// assert_eq!(stats.short_fraction(), 0.5);
/// assert_eq!(stats.lossless_fraction(), 0.5);
/// assert_eq!(stats.avg_bits(), 6.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CodeStats {
    short: u64,
    long: u64,
    lossless: u64,
    abs_error_sum: u64,
    max_error: u8,
}

impl CodeStats {
    /// Creates empty statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one encoded value.
    pub fn record(&mut self, original: u8, code: SparkCode) {
        self.record_n(original, code, 1);
    }

    /// Records `count` occurrences of the same encoded value — identical
    /// to `count` calls of [`Self::record`], for callers that histogram
    /// their values first.
    pub fn record_n(&mut self, original: u8, code: SparkCode, count: u64) {
        if count == 0 {
            return;
        }
        match code {
            SparkCode::Short(_) => self.short += count,
            SparkCode::Long { .. } => self.long += count,
        }
        let err = (i16::from(code.decode()) - i16::from(original)).unsigned_abs() as u8;
        if err == 0 {
            self.lossless += count;
        }
        self.abs_error_sum += u64::from(err) * count;
        self.max_error = self.max_error.max(err);
    }

    /// Total values recorded.
    pub fn total(&self) -> u64 {
        self.short + self.long
    }

    /// Count of 4-bit short codes.
    pub fn short_count(&self) -> u64 {
        self.short
    }

    /// Count of 8-bit long codes.
    pub fn long_count(&self) -> u64 {
        self.long
    }

    /// Fraction of values taking the short code (0 when empty).
    pub fn short_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.short as f64 / self.total() as f64
    }

    /// Fraction of values reconstructed exactly (0 when empty).
    pub fn lossless_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.lossless as f64 / self.total() as f64
    }

    /// Average code length in bits (`4·p_short + 8·p_long`; 8 when empty so
    /// an empty tensor reports no compression).
    pub fn avg_bits(&self) -> f64 {
        if self.total() == 0 {
            return 8.0;
        }
        (4 * self.short + 8 * self.long) as f64 / self.total() as f64
    }

    /// Mean absolute reconstruction error in code-word units.
    pub fn mean_abs_error(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.abs_error_sum as f64 / self.total() as f64
    }

    /// Largest single-value error observed.
    pub fn max_error(&self) -> u8 {
        self.max_error
    }

    /// Exact packed-stream length in nibbles (`1·short + 2·long`), letting
    /// an encoder pre-size its output from a statistics pre-pass.
    pub fn nibble_count(&self) -> u64 {
        self.short + 2 * self.long
    }

    /// Reassembles statistics from raw counters — the batch encoder
    /// accumulates these from a per-byte lookup table instead of calling
    /// [`CodeStats::record`] per value.
    pub(crate) fn from_counts(
        short: u64,
        long: u64,
        lossless: u64,
        abs_error_sum: u64,
        max_error: u8,
    ) -> Self {
        Self { short, long, lossless, abs_error_sum, max_error }
    }

    /// Merges another statistics block into this one.
    pub fn merge(&mut self, other: &CodeStats) {
        self.short += other.short;
        self.long += other.long;
        self.lossless += other.lossless;
        self.abs_error_sum += other.abs_error_sum;
        self.max_error = self.max_error.max(other.max_error);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode_value;

    fn stats_for(values: impl IntoIterator<Item = u8>) -> CodeStats {
        let mut s = CodeStats::new();
        for v in values {
            s.record(v, encode_value(v));
        }
        s
    }

    #[test]
    fn empty_stats_are_neutral() {
        let s = CodeStats::new();
        assert_eq!(s.total(), 0);
        assert_eq!(s.short_fraction(), 0.0);
        assert_eq!(s.lossless_fraction(), 0.0);
        assert_eq!(s.avg_bits(), 8.0);
        assert_eq!(s.mean_abs_error(), 0.0);
    }

    #[test]
    fn exhaustive_byte_stats_match_table_ii() {
        let s = stats_for(0u8..=255);
        assert_eq!(s.total(), 256);
        // 8 short codes (0..=7)
        assert_eq!(s.short_count(), 8);
        assert_eq!(s.long_count(), 248);
        // Lossless: v<8 (8) + v>=8 with b0==b3. Count them directly.
        let lossless = (0u16..=255)
            .filter(|&v| {
                let v = v as u8;
                v < 8 || ((v >> 7) & 1) == ((v >> 4) & 1)
            })
            .count() as u64;
        assert_eq!(
            (s.lossless_fraction() * 256.0).round() as u64,
            lossless
        );
        assert_eq!(s.max_error(), 16);
    }

    #[test]
    fn record_n_equals_repeated_record() {
        let values: Vec<u8> = (0..3000u32).map(|i| (i * i % 251) as u8).collect();
        let mut hist = [0u64; 256];
        for &v in &values {
            hist[v as usize] += 1;
        }
        let mut s = CodeStats::new();
        for (v, &count) in hist.iter().enumerate() {
            s.record_n(v as u8, encode_value(v as u8), count);
        }
        assert_eq!(s, stats_for(values));
    }

    #[test]
    fn avg_bits_interpolates() {
        let s = stats_for([1u8, 2, 100, 200]); // 2 short + 2 long
        assert_eq!(s.avg_bits(), 6.0);
        assert_eq!(s.nibble_count(), 2 + 2 * 2);
    }

    #[test]
    fn merge_adds_counts() {
        let mut a = stats_for([1u8, 18]);
        let b = stats_for([200u8]);
        a.merge(&b);
        assert_eq!(a.total(), 3);
        assert_eq!(a.short_count(), 1);
        assert_eq!(a.long_count(), 2);
    }

    #[test]
    fn gaussian_like_data_mostly_short() {
        // A concentration near zero (as the paper observes for quantized
        // DNN tensors) yields a high short fraction.
        let values: Vec<u8> = (0..1000).map(|i| (i % 10) as u8).collect();
        let s = stats_for(values);
        assert!(s.short_fraction() >= 0.8);
        assert!(s.avg_bits() < 5.0);
    }
}
