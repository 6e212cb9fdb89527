//! Deterministic fault injection.
//!
//! Robustness code is only trustworthy if its failure paths run under
//! test, and failure tests are only trustworthy if they are
//! reproducible. This module derives every injected fault from one
//! process-wide seed (the `WASLA_FAULTS` environment variable) the same
//! way [`crate::par::task_seed`] derives per-task RNG seeds: a
//! SplitMix64-style mix of `(seed, domain, key)` where `key` is
//! *content-derived* (a trace hash, a device-spec hash, a request
//! index) — never schedule-derived. The answer to "does this fault
//! fire?" is therefore a pure function of the seed and the thing being
//! faulted, bit-identical at any `WASLA_THREADS` setting and in any
//! interleaving.
//!
//! # Discipline
//!
//! * The environment variable is read **only here** (CI greps for
//!   that); consumers call [`plan`] and query the returned
//!   [`FaultPlan`].
//! * `WASLA_FAULTS` unset, empty, `0`, or unparsable means *no faults*:
//!   [`plan`] returns `None` and every production path stays
//!   bit-identical to the fault-free build.
//! * Tests that need a fault to fire (or not fire) search candidate
//!   seeds through [`FaultPlan::from_seed`] before setting the
//!   environment variable, instead of hard-coding magic seeds that
//!   would silently rot if the mixing constants changed.
//!
//! # Fault taxonomy
//!
//! | query | consumer | effect |
//! |---|---|---|
//! | [`FaultPlan::trace_fault`] | trace fitting | corrupt the tail of a captured op-log |
//! | [`FaultPlan::device_fault`] | calibration + replay | latency-degrade or fail a storage target |
//! | [`FaultPlan::solver_budget`] | NLP solve | exhaust the iteration budget / force a fallback rung |
//! | [`FaultPlan::request_fault`] | batch service | fail one advise attempt (retryable) |

use crate::par::task_seed;

/// The environment variable holding the fault seed. Read only by
/// [`plan`]; everything else queries the returned plan.
pub const ENV_VAR: &str = "WASLA_FAULTS";

/// Domain tags keep the query families statistically independent: the
/// same key rolled in two domains yields unrelated answers.
const DOMAIN_TRACE: u64 = 0x7472_6163_65f0_0001;
const DOMAIN_TRACE_SHAPE: u64 = 0x7472_6163_65f0_0002;
const DOMAIN_DEVICE: u64 = 0x6465_7669_63f0_0001;
const DOMAIN_DEVICE_KIND: u64 = 0x6465_7669_63f0_0002;
const DOMAIN_SOLVER: u64 = 0x736f_6c76_65f0_0001;
const DOMAIN_SOLVER_KIND: u64 = 0x736f_6c76_65f0_0002;
const DOMAIN_REQUEST: u64 = 0x7265_7175_65f0_0001;

/// Salts for the key-derivation helpers, so e.g. calibration and
/// replay probes of the same device draw independent faults.
const SALT_DEVICE: u64 = 0xd_e5a_17;
const SALT_CALIBRATION: u64 = 0xca_11b_5a1;

/// A seed-derived fault plan: a pure function from content keys to
/// injected faults. `Copy` and stateless so consumers can re-query it
/// (e.g. to record a degradation note for a fault another layer
/// applied) without threading state around.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
}

/// An injected trace fault: records at index `>= keep_fraction * len`
/// are corrupted (their stream id driven out of range), so a fitter
/// must salvage the valid prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TraceFault {
    /// Fraction of the trace left intact, in `[0.5, 0.9]` — the damage
    /// never swallows the whole trace, matching real-world torn tails.
    pub keep_fraction: f64,
}

/// An injected device fault, applied to calibration probes and replay
/// service times.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeviceFault {
    /// The device answers, slower: service times scale by this factor
    /// (in `[1.5, 8.0]`).
    Degraded {
        /// Multiplier on every service time.
        latency_factor: f64,
    },
    /// The device has effectively failed; consumers model it as
    /// pathologically slow so layout advice steers load away.
    Failed,
}

/// The service-time multiplier a [`DeviceFault::Failed`] device is
/// modeled with: slow enough that the advisor steers essentially all
/// load away, finite so replay and calibration still terminate.
pub const FAILED_LATENCY_FACTOR: f64 = 50.0;

impl DeviceFault {
    /// The service-time multiplier this fault applies — the one policy
    /// both calibration and replay use, so "how bad is a failed
    /// device" is decided in exactly one place.
    pub fn latency_factor(self) -> f64 {
        match self {
            DeviceFault::Degraded { latency_factor } => latency_factor,
            DeviceFault::Failed => FAILED_LATENCY_FACTOR,
        }
    }
}

/// An injected solver-budget exhaustion: which rung of the fallback
/// chain (auglag → pg → rate-greedy seed) the solve is forced down to.
///
/// Variants are declared in severity order, so the derived `Ord` ranks
/// a cheaper (more constrained) solve higher, and `Option::max` of two
/// budgets is the tighter one (`None`, no budget, ranks lowest).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolverBudget {
    /// Keep the configured engine but cut its iteration budget; the
    /// anytime best-so-far iterate is returned.
    Tight,
    /// Skip the augmented-Lagrangian outer loop: one projected-gradient
    /// pass only.
    PgOnly,
    /// No solve at all: fall back to the rate-greedy seed layout.
    GreedyOnly,
}

/// Reads `WASLA_FAULTS` and returns the active fault plan, or `None`
/// when fault injection is off. Like [`crate::par::threads`], the
/// environment is consulted on every call so tests and long-lived
/// processes can re-tune it between operations.
pub fn plan() -> Option<FaultPlan> {
    FaultPlan::from_seed(parse_spec(&std::env::var(ENV_VAR).ok()?)?)
}

/// Parses a `WASLA_FAULTS` value: a decimal or `0x`-prefixed
/// hexadecimal u64. Empty, zero, or unparsable specs yield `None`.
fn parse_spec(raw: &str) -> Option<u64> {
    let t = raw.trim();
    let seed = match t.strip_prefix("0x").or_else(|| t.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok()?,
        None => t.parse::<u64>().ok()?,
    };
    (seed != 0).then_some(seed)
}

/// The content key for a *replay* device fault: `seed` is the run's
/// RNG seed, `target` the target index.
pub fn device_key(seed: u64, target: u64) -> u64 {
    task_seed(seed ^ SALT_DEVICE, target)
}

/// The content key for a *calibration* device fault: `seed` is the
/// calibration seed, `spec_hash` a content hash of the device spec.
pub fn calibration_key(seed: u64, spec_hash: u64) -> u64 {
    task_seed(seed ^ SALT_CALIBRATION, spec_hash)
}

/// The content key for a batch request fault: the same `(base, index)`
/// derivation the batch layer uses for per-request seeds, so the
/// faulted slot is a function of the request's position, not of which
/// worker happened to claim it.
pub fn request_key(base_seed: u64, index: u64) -> u64 {
    task_seed(base_seed, index)
}

impl FaultPlan {
    /// Builds a plan directly from a seed (`None` for the reserved
    /// seed 0, which means "off"). Tests use this to search for
    /// exhibit seeds before setting [`ENV_VAR`].
    pub fn from_seed(seed: u64) -> Option<FaultPlan> {
        (seed != 0).then_some(FaultPlan { seed })
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// One deterministic roll in a query domain.
    fn roll(&self, domain: u64, key: u64) -> u64 {
        task_seed(self.seed ^ domain, key)
    }

    /// Maps a roll to a uniform float in `[0, 1)`.
    fn unit(r: u64) -> f64 {
        (r >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Should the trace identified by `content_key` (its content hash)
    /// arrive damaged? Fires for roughly a quarter of keys.
    pub fn trace_fault(&self, content_key: u64) -> Option<TraceFault> {
        if self.roll(DOMAIN_TRACE, content_key) % 4 != 0 {
            return None;
        }
        let keep = 0.5 + 0.4 * Self::unit(self.roll(DOMAIN_TRACE_SHAPE, content_key));
        Some(TraceFault {
            keep_fraction: keep,
        })
    }

    /// Does the device identified by `key` (see [`device_key`] /
    /// [`calibration_key`]) misbehave? Fires for roughly an eighth of
    /// keys; a quarter of those are hard failures.
    pub fn device_fault(&self, key: u64) -> Option<DeviceFault> {
        if self.roll(DOMAIN_DEVICE, key) % 8 != 0 {
            return None;
        }
        let kind = self.roll(DOMAIN_DEVICE_KIND, key);
        if kind % 4 == 0 {
            Some(DeviceFault::Failed)
        } else {
            Some(DeviceFault::Degraded {
                latency_factor: 1.5 + 6.5 * Self::unit(kind),
            })
        }
    }

    /// Is the solve identified by `key` (the advisor seed) budget-
    /// exhausted, and down to which fallback rung? Fires for roughly a
    /// quarter of keys.
    pub fn solver_budget(&self, key: u64) -> Option<SolverBudget> {
        if self.roll(DOMAIN_SOLVER, key) % 4 != 0 {
            return None;
        }
        Some(match self.roll(DOMAIN_SOLVER_KIND, key) % 3 {
            0 => SolverBudget::Tight,
            1 => SolverBudget::PgOnly,
            _ => SolverBudget::GreedyOnly,
        })
    }

    /// Does attempt number `attempt` of the batch request identified
    /// by `key` (see [`request_key`]) fail? Each attempt rolls
    /// independently, so retries can deterministically succeed — or
    /// deterministically keep failing.
    pub fn request_fault(&self, key: u64, attempt: u32) -> bool {
        self.roll(DOMAIN_REQUEST.wrapping_add(attempt as u64), key) % 8 == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parsing_accepts_decimal_and_hex_and_rejects_noise() {
        assert_eq!(parse_spec("42"), Some(42));
        assert_eq!(parse_spec(" 0x5eed \n"), Some(0x5eed));
        assert_eq!(parse_spec("0XFF"), Some(0xff));
        assert_eq!(parse_spec("0"), None);
        assert_eq!(parse_spec("0x0"), None);
        assert_eq!(parse_spec(""), None);
        assert_eq!(parse_spec("nope"), None);
        assert_eq!(parse_spec("-3"), None);
    }

    #[test]
    fn zero_seed_means_off() {
        assert!(FaultPlan::from_seed(0).is_none());
        assert!(FaultPlan::from_seed(1).is_some());
    }

    #[test]
    fn queries_are_pure_functions_of_seed_and_key() {
        let p = FaultPlan::from_seed(0xfa_017).unwrap();
        for key in 0..200u64 {
            assert_eq!(p.trace_fault(key), p.trace_fault(key));
            assert_eq!(p.device_fault(key), p.device_fault(key));
            assert_eq!(p.solver_budget(key), p.solver_budget(key));
            assert_eq!(p.request_fault(key, 0), p.request_fault(key, 0));
        }
    }

    #[test]
    fn domains_are_independent_and_all_variants_reachable() {
        let p = FaultPlan::from_seed(7).unwrap();
        let mut traces = 0;
        let mut degraded = 0;
        let mut failed = 0;
        let mut tight = 0;
        let mut pg_only = 0;
        let mut greedy = 0;
        let mut requests = 0;
        let n = 4000u64;
        for key in 0..n {
            if let Some(t) = p.trace_fault(key) {
                traces += 1;
                assert!((0.5..=0.9).contains(&t.keep_fraction), "{t:?}");
            }
            match p.device_fault(key) {
                Some(DeviceFault::Degraded { latency_factor }) => {
                    degraded += 1;
                    assert!((1.5..=8.0).contains(&latency_factor));
                }
                Some(DeviceFault::Failed) => failed += 1,
                None => {}
            }
            match p.solver_budget(key) {
                Some(SolverBudget::Tight) => tight += 1,
                Some(SolverBudget::PgOnly) => pg_only += 1,
                Some(SolverBudget::GreedyOnly) => greedy += 1,
                None => {}
            }
            if p.request_fault(key, 0) {
                requests += 1;
            }
        }
        // Every fault kind is reachable, and none fires for every key.
        for (name, count) in [
            ("trace", traces),
            ("degraded", degraded),
            ("failed", failed),
            ("tight", tight),
            ("pg-only", pg_only),
            ("greedy", greedy),
            ("request", requests),
        ] {
            assert!(count > 0, "{name} never fired over {n} keys");
            assert!((count as u64) < n, "{name} fired for every key");
        }
    }

    #[test]
    fn solver_budgets_order_by_severity() {
        use SolverBudget::*;
        assert!(Tight < PgOnly && PgOnly < GreedyOnly);
        // `Option::max` is the tighter budget; no budget ranks lowest.
        assert_eq!(None.max(Some(Tight)), Some(Tight));
        assert_eq!(Some(GreedyOnly).max(Some(PgOnly)), Some(GreedyOnly));
        assert_eq!(Some(Tight).max(None), Some(Tight));
    }

    #[test]
    fn retry_attempts_roll_independently() {
        let p = FaultPlan::from_seed(11).unwrap();
        // Some key must fail on attempt 0 and pass on attempt 1 (a
        // retryable transient), and some key must fail on both (a
        // persistent fault).
        let transient = (0..4000u64)
            .map(|i| request_key(42, i))
            .any(|k| p.request_fault(k, 0) && !p.request_fault(k, 1));
        let persistent = (0..4000u64)
            .map(|i| request_key(42, i))
            .any(|k| p.request_fault(k, 0) && p.request_fault(k, 1));
        assert!(transient, "no transient request fault found");
        assert!(persistent, "no persistent request fault found");
    }

    #[test]
    fn failed_devices_share_one_latency_policy() {
        assert_eq!(DeviceFault::Failed.latency_factor(), FAILED_LATENCY_FACTOR);
        let degraded = DeviceFault::Degraded {
            latency_factor: 2.5,
        };
        assert_eq!(degraded.latency_factor(), 2.5);
    }

    #[test]
    fn key_helpers_separate_domains() {
        // Calibration and replay probes of the same (seed, id) must
        // draw independent faults.
        assert_ne!(device_key(42, 3), calibration_key(42, 3));
        assert_ne!(device_key(42, 3), device_key(42, 4));
        assert_ne!(request_key(42, 3), request_key(43, 3));
    }
}
