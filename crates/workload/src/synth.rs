//! Seeded multi-tenant scenario generator for fleet-scale stress.
//!
//! The paper evaluates the advisor one catalog at a time; the fleet
//! work (ROADMAP: "Multi-tenant scenario generator and fleet-scale
//! stress") needs thousands of *distinct* tenants sharing one target
//! fleet. This module generates them from a compact parameter set in
//! the spirit of WiSeDB's multi-tenant workloads and atomix's
//! workload-generator knobs (PAPERS.md / SNIPPETS.md Snippet 1):
//! tenant count, zipf-skewed object popularity, object-count and
//! object-size distributions, read/write mix, burstiness, and a
//! per-tenant deadline class.
//!
//! Determinism contract: for a fixed [`SynthSpec`] the output is a
//! pure function of the spec. Every tenant derives its private RNG
//! stream from `par::task_seed(spec.seed, tenant_index)`, so no
//! randomness is threaded sequentially across tenants and any one
//! tenant can be generated alone ([`generate_tenant`]).

use crate::catalog::Catalog;
use crate::object::{DbObject, ObjectKind};
use crate::query::{AccessKind, AccessStep, QueryTemplate, RAND_REQ, SCAN_REQ, TEMP_REQ};
use crate::sql::{OlapConfig, SqlWorkload, SqlWorkloadKind};
use wasla_simlib::rng::ZipfSampler;
use wasla_simlib::{impl_json_struct, impl_json_unit_enum, par, SimRng};

const MIB: f64 = 1024.0 * 1024.0;

/// A tenant's latency expectation, in the WiSeDB sense of per-tenant
/// performance goals: it decides how much solve budget the advisor may
/// spend before degrading through the anytime fallback chain, and who
/// is shed first under admission pressure (batch tenants yield to
/// interactive ones).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DeadlineClass {
    /// Tight deadline: answer fast, accept the cheapest solve rungs.
    Interactive,
    /// Default service level.
    Standard,
    /// No deadline: full-quality solves, first to be shed.
    Batch,
}

impl_json_unit_enum!(DeadlineClass {
    Interactive,
    Standard,
    Batch
});

impl DeadlineClass {
    /// Admission priority: lower is served first when capacity binds.
    pub fn priority(self) -> u8 {
        match self {
            DeadlineClass::Interactive => 0,
            DeadlineClass::Standard => 1,
            DeadlineClass::Batch => 2,
        }
    }

    /// Stable lower-case label (CLI flag value / decision log).
    pub fn label(self) -> &'static str {
        match self {
            DeadlineClass::Interactive => "interactive",
            DeadlineClass::Standard => "standard",
            DeadlineClass::Batch => "batch",
        }
    }

    /// Parses a CLI label; `None` for unknown names.
    pub fn parse(s: &str) -> Option<DeadlineClass> {
        match s {
            "interactive" => Some(DeadlineClass::Interactive),
            "standard" => Some(DeadlineClass::Standard),
            "batch" => Some(DeadlineClass::Batch),
            _ => None,
        }
    }
}

/// Parameter set of one synthetic fleet scenario. Everything is
/// seeded: the same spec always regenerates the same tenants.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthSpec {
    /// Number of tenants to generate.
    pub tenants: usize,
    /// Shared fleet size (targets all tenants are laid out on).
    pub targets: usize,
    /// Zipf skew for object popularity and size decay within a tenant
    /// (0 = uniform; the atomix generator's `zipf-exponent`).
    pub zipf_theta: f64,
    /// Minimum data objects per tenant (tables + indexes).
    pub objects_min: usize,
    /// Maximum data objects per tenant.
    pub objects_max: usize,
    /// Smallest per-tenant base object size, in MiB.
    pub size_mib_min: f64,
    /// Largest per-tenant base object size, in MiB.
    pub size_mib_max: f64,
    /// Probability that a generated access step writes.
    pub write_fraction: f64,
    /// Concurrency burstiness in `[0, 1]`: 0 keeps every tenant at
    /// concurrency 1, 1 lets bursts reach 8 concurrent queries.
    pub burstiness: f64,
    /// Fraction of tenants in the interactive deadline class.
    pub interactive_share: f64,
    /// Fraction of tenants in the batch deadline class (the remainder
    /// after interactive + batch is standard).
    pub batch_share: f64,
    /// Base seed; tenant `i` derives `par::task_seed(seed, i)`.
    pub seed: u64,
}

impl_json_struct!(SynthSpec {
    tenants,
    targets,
    zipf_theta,
    objects_min,
    objects_max,
    size_mib_min,
    size_mib_max,
    write_fraction,
    burstiness,
    interactive_share,
    batch_share,
    seed
});

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            tenants: 1000,
            targets: 8,
            zipf_theta: 0.8,
            objects_min: 4,
            objects_max: 10,
            size_mib_min: 16.0,
            size_mib_max: 256.0,
            write_fraction: 0.2,
            burstiness: 0.5,
            interactive_share: 0.3,
            batch_share: 0.2,
            seed: 0x7E4A47,
        }
    }
}

impl SynthSpec {
    /// Validates the parameter ranges. The CLI maps the error message
    /// into `WaslaError::Usage` (exit 2).
    pub fn validate(&self) -> Result<(), String> {
        if self.tenants == 0 {
            return Err("tenants must be >= 1".into());
        }
        if self.targets == 0 {
            return Err("targets must be >= 1".into());
        }
        if self.objects_min == 0 || self.objects_min > self.objects_max {
            return Err(format!(
                "object count range [{}, {}] must satisfy 1 <= min <= max",
                self.objects_min, self.objects_max
            ));
        }
        if !(self.size_mib_min >= 1.0 && self.size_mib_min <= self.size_mib_max) {
            return Err(format!(
                "size range [{}, {}] MiB must satisfy 1 <= min <= max",
                self.size_mib_min, self.size_mib_max
            ));
        }
        if !(0.0..=4.0).contains(&self.zipf_theta) {
            return Err(format!("zipf theta {} must be in [0, 4]", self.zipf_theta));
        }
        if !(0.0..=1.0).contains(&self.write_fraction) {
            return Err(format!(
                "write fraction {} must be in [0, 1]",
                self.write_fraction
            ));
        }
        if !(0.0..=1.0).contains(&self.burstiness) {
            return Err(format!("burstiness {} must be in [0, 1]", self.burstiness));
        }
        if !(0.0..=1.0).contains(&self.interactive_share)
            || !(0.0..=1.0).contains(&self.batch_share)
            || self.interactive_share + self.batch_share > 1.0
        {
            return Err(format!(
                "deadline shares (interactive {}, batch {}) must be in [0, 1] and sum to <= 1",
                self.interactive_share, self.batch_share
            ));
        }
        Ok(())
    }
}

/// One generated tenant: a private catalog, a workload over it, and a
/// deadline class. Object names carry the tenant prefix so catalogs
/// can be consolidated without collisions.
#[derive(Clone, Debug, PartialEq)]
pub struct SynthTenant {
    /// Tenant name, `t0000`-style.
    pub name: String,
    /// The tenant's database objects.
    pub catalog: Catalog,
    /// The tenant's query workload.
    pub workload: SqlWorkload,
    /// The tenant's latency expectation.
    pub deadline: DeadlineClass,
}

/// Generates the full tenant population for a spec, tenant by tenant.
pub fn generate(spec: &SynthSpec) -> Result<Vec<SynthTenant>, String> {
    spec.validate()?;
    Ok((0..spec.tenants as u64)
        .map(|i| generate_tenant(spec, i))
        .collect())
}

/// Generates tenant `index` alone (used by the stress driver to avoid
/// materializing the whole population when batching).
pub fn generate_tenant(spec: &SynthSpec, index: u64) -> SynthTenant {
    let mut rng = SimRng::new(par::task_seed(spec.seed, index));
    let name = format!("t{index:04}");

    // --- catalog: zipf-decaying sizes over a random object count ---
    let span = spec.objects_max - spec.objects_min + 1;
    let data_objects = spec.objects_min + rng.index(span);
    let base_mib = rng.uniform_range(spec.size_mib_min, spec.size_mib_max);
    let mut objects = Vec::with_capacity(data_objects + 2);
    for k in 0..data_objects {
        // Rank-decay keeps one hot table and a long tail of smaller
        // objects, mirroring the skew the popularity sampler uses.
        let mib = (base_mib / ((k + 1) as f64).powf(spec.zipf_theta)).max(1.0);
        let kind = if k > 0 && rng.chance(0.35) {
            ObjectKind::Index
        } else {
            ObjectKind::Table
        };
        objects.push(DbObject::new(
            format!("{name}_OBJ{k:02}"),
            kind,
            (mib * MIB) as u64,
        ));
    }
    objects.push(DbObject::new(
        format!("{name}_TEMP"),
        ObjectKind::TempSpace,
        ((base_mib * 0.25).max(1.0) * MIB) as u64,
    ));
    let catalog = Catalog::from_objects(objects);

    // --- templates: zipf-skewed popularity over the data objects ---
    let popularity = ZipfSampler::new(data_objects, spec.zipf_theta);
    let template_count = 3 + rng.index(4);
    let mut templates = Vec::with_capacity(template_count);
    for t in 0..template_count {
        let steps = 1 + rng.index(3);
        let mut phase = Vec::with_capacity(steps);
        for _ in 0..steps {
            let obj = popularity.sample(&mut rng);
            let object = catalog.object(obj).name.clone();
            let write = rng.chance(spec.write_fraction);
            let sequential = rng.chance(0.6);
            let kind = match (write, sequential) {
                (false, true) => AccessKind::SeqRead {
                    fraction: rng.uniform_range(0.2, 1.0),
                    request: SCAN_REQ,
                },
                (false, false) => AccessKind::RandRead {
                    count: rng.uniform_range(50.0, 800.0),
                    request: RAND_REQ,
                },
                (true, true) => AccessKind::SeqWrite {
                    fraction: rng.uniform_range(0.05, 0.4),
                    request: SCAN_REQ,
                },
                (true, false) => AccessKind::RandWrite {
                    count: rng.uniform_range(20.0, 300.0),
                    request: RAND_REQ,
                },
            };
            phase.push(AccessStep { object, kind });
        }
        let mut phases = vec![phase];
        if rng.chance(0.4) {
            // Post-scan spill phase, like the paper's OLAP profiles.
            let spill = rng.uniform_range(0.05, 0.5);
            phases.push(vec![
                AccessStep {
                    object: format!("{name}_TEMP"),
                    kind: AccessKind::SeqWrite {
                        fraction: spill,
                        request: TEMP_REQ,
                    },
                },
                AccessStep {
                    object: format!("{name}_TEMP"),
                    kind: AccessKind::SeqRead {
                        fraction: spill,
                        request: TEMP_REQ,
                    },
                },
            ]);
        }
        templates.push(QueryTemplate {
            name: format!("{name}_Q{t}"),
            phases,
        });
    }

    // --- execution plan: zipf-skewed template mix, bursty concurrency ---
    let template_popularity = ZipfSampler::new(template_count, spec.zipf_theta);
    let sequence_len = 4 + rng.index(5);
    let sequence: Vec<usize> = (0..sequence_len)
        .map(|_| template_popularity.sample(&mut rng))
        .collect();
    let burst_span = (spec.burstiness * 7.0) as usize;
    let concurrency = 1 + rng.index(burst_span + 1);
    let workload = SqlWorkload {
        name: format!("{name}_MIX"),
        templates,
        kind: SqlWorkloadKind::Olap(OlapConfig {
            sequence,
            concurrency,
        }),
    };

    // --- deadline class from the configured shares ---
    let u = rng.uniform();
    let deadline = if u < spec.interactive_share {
        DeadlineClass::Interactive
    } else if u < spec.interactive_share + spec.batch_share {
        DeadlineClass::Batch
    } else {
        DeadlineClass::Standard
    };

    SynthTenant {
        name,
        catalog,
        workload,
        deadline,
    }
}

/// Renders tenants to a stable, human-diffable text form. This is the
/// golden-fixture format (`tests/fixtures/synth_tenants.golden`): any
/// change to the generator's sampling order shows up as a fixture
/// diff instead of silently shifting every downstream stress result.
pub fn render(tenants: &[SynthTenant]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for t in tenants {
        let (seq, conc) = match &t.workload.kind {
            SqlWorkloadKind::Olap(c) => (c.sequence.clone(), c.concurrency),
            SqlWorkloadKind::Oltp(c) => (Vec::new(), c.terminals),
        };
        let _ = writeln!(
            out,
            "tenant={} class={} objects={} bytes={} queries={} concurrency={}",
            t.name,
            t.deadline.label(),
            t.catalog.len(),
            t.catalog.total_size(),
            t.workload.templates.len(),
            conc,
        );
        for obj in t.catalog.objects() {
            let kind = match obj.kind {
                ObjectKind::Table => "table",
                ObjectKind::Index => "index",
                ObjectKind::Log => "log",
                ObjectKind::TempSpace => "temp",
            };
            let _ = writeln!(
                out,
                "  object name={} kind={kind} bytes={}",
                obj.name, obj.size
            );
        }
        for tpl in &t.workload.templates {
            let steps: usize = tpl.phases.iter().map(|p| p.len()).sum();
            let writes: usize = tpl
                .phases
                .iter()
                .flatten()
                .filter(|s| s.kind.is_write())
                .count();
            let _ = writeln!(
                out,
                "  query name={} phases={} steps={steps} writes={writes}",
                tpl.name,
                tpl.phases.len(),
            );
        }
        let seq_str: Vec<String> = seq.iter().map(|i| i.to_string()).collect();
        let _ = writeln!(out, "  sequence=[{}]", seq_str.join(","));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use wasla_simlib::json::{FromJson, ToJson};

    fn small_spec() -> SynthSpec {
        SynthSpec {
            tenants: 16,
            ..SynthSpec::default()
        }
    }

    #[test]
    fn generation_is_deterministic_and_index_stable() {
        let spec = small_spec();
        let a = generate(&spec).unwrap();
        let b = generate(&spec).unwrap();
        assert_eq!(a, b);
        // Per-tenant generation matches the batch path (index-seeded,
        // not sequence-seeded).
        for (i, t) in a.iter().enumerate() {
            assert_eq!(*t, generate_tenant(&spec, i as u64));
        }
    }

    #[test]
    fn seeds_change_the_population() {
        let a = generate(&small_spec()).unwrap();
        let b = generate(&SynthSpec {
            seed: 0xDEAD,
            ..small_spec()
        })
        .unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn object_names_are_fleet_unique() {
        let tenants = generate(&small_spec()).unwrap();
        let mut names: Vec<String> = tenants.iter().flat_map(|t| t.catalog.names()).collect();
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total);
    }

    #[test]
    fn every_query_object_resolves_in_its_catalog() {
        for t in generate(&small_spec()).unwrap() {
            for tpl in &t.workload.templates {
                for name in tpl.objects() {
                    assert!(t.catalog.id_of(name).is_some(), "{}: {name}", t.name);
                }
            }
        }
    }

    #[test]
    fn deadline_shares_are_roughly_respected() {
        let spec = SynthSpec {
            tenants: 400,
            interactive_share: 0.5,
            batch_share: 0.25,
            ..SynthSpec::default()
        };
        let tenants = generate(&spec).unwrap();
        let interactive = tenants
            .iter()
            .filter(|t| t.deadline == DeadlineClass::Interactive)
            .count() as f64
            / 400.0;
        assert!((interactive - 0.5).abs() < 0.1, "share {interactive}");
    }

    #[test]
    fn zero_burstiness_pins_concurrency_to_one() {
        let spec = SynthSpec {
            tenants: 32,
            burstiness: 0.0,
            ..SynthSpec::default()
        };
        for t in generate(&spec).unwrap() {
            match &t.workload.kind {
                SqlWorkloadKind::Olap(c) => assert_eq!(c.concurrency, 1),
                SqlWorkloadKind::Oltp(_) => panic!("synth emits OLAP plans"),
            }
        }
    }

    #[test]
    fn validation_rejects_bad_ranges() {
        for bad in [
            SynthSpec {
                tenants: 0,
                ..SynthSpec::default()
            },
            SynthSpec {
                objects_min: 0,
                ..SynthSpec::default()
            },
            SynthSpec {
                objects_min: 9,
                objects_max: 3,
                ..SynthSpec::default()
            },
            SynthSpec {
                write_fraction: 1.5,
                ..SynthSpec::default()
            },
            SynthSpec {
                burstiness: -0.1,
                ..SynthSpec::default()
            },
            SynthSpec {
                interactive_share: 0.8,
                batch_share: 0.4,
                ..SynthSpec::default()
            },
            SynthSpec {
                size_mib_min: 0.5,
                ..SynthSpec::default()
            },
            SynthSpec {
                zipf_theta: 9.0,
                ..SynthSpec::default()
            },
        ] {
            assert!(bad.validate().is_err(), "{bad:?} should fail validation");
        }
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = SynthSpec::default();
        let json = spec.to_json().to_string_compact();
        let back = SynthSpec::from_json(&wasla_simlib::json::Json::parse(&json).unwrap()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn deadline_class_labels_round_trip() {
        for class in [
            DeadlineClass::Interactive,
            DeadlineClass::Standard,
            DeadlineClass::Batch,
        ] {
            assert_eq!(DeadlineClass::parse(class.label()), Some(class));
        }
        assert_eq!(DeadlineClass::parse("realtime"), None);
    }

    #[test]
    fn render_mentions_every_tenant_once() {
        let tenants = generate(&small_spec()).unwrap();
        let text = render(&tenants);
        for t in &tenants {
            assert_eq!(text.matches(&format!("tenant={} ", t.name)).count(), 1);
        }
    }
}
