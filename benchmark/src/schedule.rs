//! Seeded open-loop arrival schedules.
//!
//! Arrivals are a Poisson process: exponential inter-arrival gaps at the
//! phase's rate. What each arrival sends is drawn from the same generator,
//! so one seed fixes the whole schedule, byte for byte.

use spark_util::rng::splitmix64;
use spark_util::{Exp, Rng};

/// An independent sub-seed of the run seed for one purpose (`tag`), so
/// inputs and each phase's schedule vary with the seed independently.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut state = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut state)
}

/// One scheduled request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Intended send time, ns after the phase starts.
    pub at_ns: u64,
    /// Which request to send; also the key of its expected response.
    pub spec: u32,
    /// Tenant the request is sent as.
    pub tenant: u32,
}

/// A Poisson schedule of `rate` arrivals per second over `seconds`;
/// `pick` draws each arrival's `(spec, tenant)` from the same generator.
///
/// # Panics
///
/// When `rate` is not finite and positive.
pub fn poisson(
    seed: u64,
    rate: f64,
    seconds: f64,
    mut pick: impl FnMut(&mut Rng) -> (u32, u32),
) -> Vec<Arrival> {
    let mut rng = Rng::seed_from_u64(seed);
    let gap = Exp::new(rate).expect("arrival rate must be finite and positive");
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0f64;
    loop {
        t += gap.sample(&mut rng);
        if t >= seconds {
            return out;
        }
        let (spec, tenant) = pick(&mut rng);
        out.push(Arrival {
            at_ns: (t * 1e9) as u64,
            spec,
            tenant,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Text dump of a schedule, one `at_ns spec tenant` line per arrival —
    /// the byte-comparable form the determinism test diffs.
    fn dump(arrivals: &[Arrival]) -> String {
        arrivals
            .iter()
            .map(|a| format!("{} {} {}\n", a.at_ns, a.spec, a.tenant))
            .collect()
    }

    fn schedule(seed: u64) -> String {
        dump(&poisson(seed, 500.0, 2.0, |rng| {
            (rng.gen_below(100) as u32, rng.gen_below(7) as u32)
        }))
    }

    #[test]
    fn same_seed_gives_a_byte_identical_schedule() {
        assert_eq!(schedule(7), schedule(7));
    }

    #[test]
    fn another_seed_gives_another_schedule() {
        assert_ne!(schedule(7), schedule(8));
        assert_ne!(derive(7, 1), derive(7, 2));
        assert_ne!(derive(7, 1), derive(8, 1));
    }

    #[test]
    fn arrivals_are_ordered_and_near_the_rate() {
        let a = poisson(3, 1000.0, 4.0, |_| (0, 0));
        assert!(a.windows(2).all(|w| w[0].at_ns <= w[1].at_ns));
        assert!(a.last().is_some_and(|l| l.at_ns < 4_000_000_000));
        assert!((3600..4400).contains(&a.len()), "{} arrivals", a.len());
    }
}
