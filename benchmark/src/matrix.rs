//! `fig_pairs` and `multicore8`: a (design × workload) matrix of trace
//! runs plus the alone baselines their slowdowns are normalised by, as
//! `strange_bench::eval_pair_matrix` / `eval_multi_matrix` run them.

use std::collections::{BTreeMap, BTreeSet};

use strange_bench::{
    eval_multi_matrix, eval_multi_matrix_par, eval_pair_matrix, eval_pair_matrix_par, gmean,
    improvement_pct, mean, Design, Harness, Mech, ScaleConfig,
};
use strange_core::{RunResult, SimMode, System};
use strange_workloads::{app_by_name, eval_pairs, multicore_class_groups, AppRef, Workload as Mix};

use crate::bench::{
    fingerprint, readiness_counts, served_mbps, timed, Account, Check, Counts, Handoff, Round,
    Values, Workload,
};
use crate::json::Json;
use crate::trace::Tracer;

/// Instructions per core of the reduced-scale Reference ≡ FastForward
/// check.
const CHECK_INSTR: u64 = 20_000;

#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// Figure 6: 43 two-core pairs × {Oblivious, Greedy, DrStrange}.
    Pairs,
    /// 18 eight-core L/M/H class-group mixes × {Oblivious, DrStrange}.
    Multi,
}

pub struct Matrix {
    kind: Kind,
    seed: u64,
    instr: u64,
    designs: &'static [Design],
    mixes: Vec<Mix>,
    /// Intensity class of each mix (`L`, `M` or `H`).
    classes: Vec<char>,
    /// The accounting round's totals, reused by the timed rounds: the
    /// harness entry points return evaluations, not run results.
    round: Round,
}

const PAIR_RNG_MBPS: u32 = 5120;
const MULTI_CORES: usize = 8;
/// Six mixes per class at 200 000 instructions rather than three at
/// 400 000: the same work, and half the spread across seeds in the
/// simulated metrics (the seed samples the mixes).
const MULTI_PER_GROUP: usize = 6;
const MECH: Mech = Mech::DRange;

pub fn fig_pairs(seed: u64) -> Matrix {
    Matrix::new(
        Kind::Pairs,
        seed,
        300_000,
        &[Design::Oblivious, Design::Greedy, Design::DrStrange],
    )
}

pub fn multicore8(seed: u64) -> Matrix {
    Matrix::new(
        Kind::Multi,
        seed,
        200_000,
        &[Design::Oblivious, Design::DrStrange],
    )
}

/// The mixes and their intensity classes. `fig_pairs` is the paper's
/// fixed matrix and takes nothing from the seed; `multicore8` samples its
/// class groups with it.
fn generate(kind: Kind, seed: u64) -> (Vec<Mix>, Vec<char>) {
    match kind {
        Kind::Pairs => {
            let mixes = eval_pairs(PAIR_RNG_MBPS);
            let classes = mixes
                .iter()
                .map(|m| match &m.apps[0] {
                    AppRef::Named(name) => app_by_name(name).expect("catalog app").class().letter(),
                    AppRef::Rng(_) => unreachable!("a pair leads with its application"),
                })
                .collect();
            (mixes, classes)
        }
        Kind::Multi => multicore_class_groups(MULTI_CORES, MULTI_PER_GROUP, seed)
            .into_iter()
            .flat_map(|(label, mixes)| {
                let class = label.chars().next().expect("class letter");
                mixes.into_iter().map(move |m| (m, class))
            })
            .unzip(),
    }
}

/// The distinct applications of `mixes` in first-use order: one alone
/// baseline each.
fn distinct_apps(mixes: &[Mix]) -> Vec<AppRef> {
    let mut seen = BTreeSet::new();
    mixes
        .iter()
        .flat_map(|m| &m.apps)
        .filter(|app| seen.insert(app.label()))
        .cloned()
        .collect()
}

/// `Harness::run`, kept apart so the system can be inspected afterwards.
fn run_cell(
    tr: &mut Tracer,
    req: u64,
    design: Design,
    mix: &Mix,
    instr: u64,
    mode: SimMode,
    counts: &mut Counts,
) -> RunResult {
    let config = design.config_scaled(mix, instr).with_sim_mode(mode);
    let mut sys = tr.span("system.new", req, |_| {
        System::new(config, mix.traces(), MECH.build()).expect("valid configuration")
    });
    let res = tr.span("system.run", req, |_| sys.run());
    counts.add_run(&res, sys.skipped_cycles(), readiness_counts(&sys));
    res
}

impl Matrix {
    fn new(kind: Kind, seed: u64, instr: u64, designs: &'static [Design]) -> Matrix {
        let (mixes, classes) = generate(kind, seed);
        Matrix {
            kind,
            seed,
            instr,
            designs,
            mixes,
            classes,
            round: Round::default(),
        }
    }

    fn harness(&self) -> Harness {
        // `with_scale` attaches no on-disk alone cache, and a fresh
        // harness per round starts with an empty in-memory one.
        Harness::with_scale(ScaleConfig {
            instr: self.instr,
            per_group: MULTI_PER_GROUP,
        })
    }

    fn row(&self, design: Design) -> usize {
        self.designs
            .iter()
            .position(|d| *d == design)
            .expect("design in the matrix")
    }

    /// Runs the matrix through the harness (one thread, or the worker
    /// pool) and returns the evaluation's simulated metrics and hash.
    fn evaluate(&self, parallel: bool) -> (Values, u64) {
        let h = self.harness();
        let mut v = Values::new();
        let (ds, ob) = (self.row(Design::DrStrange), self.row(Design::Oblivious));
        let hash = match self.kind {
            Kind::Pairs => {
                let run = if parallel {
                    eval_pair_matrix_par
                } else {
                    eval_pair_matrix
                };
                let m = run(&h, self.designs, &self.mixes, MECH);
                let avg = |row: usize, f: fn(&strange_bench::PairEval) -> f64| {
                    mean(&m[row].iter().map(f).collect::<Vec<_>>())
                };
                v.insert("sim_nonrng_slowdown", avg(ds, |e| e.nonrng_slowdown));
                v.insert("sim_rng_slowdown", avg(ds, |e| e.rng_slowdown));
                v.insert("sim_unfairness", avg(ds, |e| e.unfairness));
                // The paper's headline improvements (17.9 % non-RNG,
                // 25.1 % RNG, 7.6 % for Greedy Idle over the baseline):
                // the model's error against them, in percentage points,
                // belongs beside every simulated speed-up.
                let gr = self.row(Design::Greedy);
                let gain = |row: usize, f: fn(&strange_bench::PairEval) -> f64| {
                    improvement_pct(avg(ob, f), avg(row, f))
                };
                v.insert(
                    "harness.paper_nonrng_err_pp",
                    gain(ds, |e| e.nonrng_slowdown) - 17.9,
                );
                v.insert(
                    "harness.paper_rng_err_pp",
                    gain(ds, |e| e.rng_slowdown) - 25.1,
                );
                v.insert(
                    "harness.paper_greedy_err_pp",
                    gain(gr, |e| e.nonrng_slowdown) - 7.6,
                );
                fingerprint(&m)
            }
            Kind::Multi => {
                let run = if parallel {
                    eval_multi_matrix_par
                } else {
                    eval_multi_matrix
                };
                let m = run(&h, self.designs, &self.mixes, MECH);
                let avg = |f: fn(&strange_bench::MultiEval) -> f64| {
                    mean(&m[ds].iter().map(f).collect::<Vec<_>>())
                };
                v.insert("sim_rng_slowdown", avg(|e| e.rng_slowdown));
                v.insert("sim_unfairness", avg(|e| e.unfairness));
                let speedups: Vec<f64> = m[ds]
                    .iter()
                    .zip(&m[ob])
                    .map(|(d, o)| d.weighted_speedup / o.weighted_speedup)
                    .collect();
                v.insert("sim_weighted_speedup", gmean(&speedups));
                fingerprint(&m)
            }
        };
        (v, hash)
    }
}

impl Workload for Matrix {
    fn constants(&self) -> Json {
        let designs = self.designs.iter().map(|d| Json::str(d.label())).collect();
        let mut fields = vec![
            ("instr_per_core", Json::from(self.instr)),
            ("designs", Json::Arr(designs)),
            ("mixes", Json::from(self.mixes.len() as u64)),
            (
                "alone_baselines",
                Json::from(distinct_apps(&self.mixes).len() as u64),
            ),
            ("mechanism", Json::str("D-RaNGe")),
            ("threads", Json::from(1u64)),
        ];
        match self.kind {
            Kind::Pairs => fields.push(("rng_mbps", Json::from(u64::from(PAIR_RNG_MBPS)))),
            Kind::Multi => {
                fields.push(("cores", Json::from(MULTI_CORES as u64)));
                fields.push(("per_group", Json::from(MULTI_PER_GROUP as u64)));
            }
        }
        Json::obj(fields)
    }

    fn setup(&mut self) -> f64 {
        let (kind, seed, instr) = (self.kind, self.seed, self.instr);
        let design = self.designs[0];
        let (seconds, built) = timed(|| {
            let (mixes, _) = generate(kind, seed);
            let first = &mixes[0];
            let system = System::new(
                design.config_scaled(first, instr),
                first.traces(),
                MECH.build(),
            );
            (mixes, system.expect("valid configuration"))
        });
        drop(built);
        seconds
    }

    fn account(&mut self, tr: &mut Tracer) -> Account {
        let mut counts = Counts::default();
        let mut values = Values::new();
        let mut alone_s = 0.0;
        let (wall_s, ()) = timed(|| {
            let (mixes, _) = tr.span("workloads.gen", 0, |_| generate(self.kind, self.seed));
            for (i, app) in distinct_apps(&mixes).into_iter().enumerate() {
                let mix = Mix {
                    name: format!("{}-alone", app.label()),
                    apps: vec![app],
                };
                let (s, _) = timed(|| {
                    tr.span("harness.alone", i as u64, |tr| {
                        run_cell(
                            tr,
                            i as u64,
                            Design::Oblivious,
                            &mix,
                            self.instr,
                            SimMode::FastForward,
                            &mut counts,
                        )
                    })
                });
                alone_s += s;
            }
            let mut class_s: BTreeMap<char, f64> = BTreeMap::new();
            let mut hit_rates = Vec::new();
            let (mut ds_bytes, mut ds_cycles) = (0u64, 0u64);
            for (d, &design) in self.designs.iter().enumerate() {
                for (w, mix) in mixes.iter().enumerate() {
                    let req = (1000 * (d + 1) + w) as u64;
                    let (s, res) = timed(|| {
                        tr.span("harness.cell", req, |tr| {
                            run_cell(
                                tr,
                                req,
                                design,
                                mix,
                                self.instr,
                                SimMode::FastForward,
                                &mut counts,
                            )
                        })
                    });
                    *class_s.entry(self.classes[w]).or_default() += s;
                    if design == Design::DrStrange {
                        hit_rates.push(res.stats.buffer_serve_rate());
                        ds_bytes += res.stats.rng_completions * 8;
                        ds_cycles += res.cpu_cycles;
                    }
                }
            }
            values.insert("sim_buffer_hit_rate", mean(&hit_rates));
            values.insert("sim_served_mbps", served_mbps(ds_bytes, ds_cycles));
            for (class, name) in [
                ('H', "harness.class_h_s"),
                ('M', "harness.class_m_s"),
                ('L', "harness.class_l_s"),
            ] {
                values.insert(name, class_s.get(&class).copied().unwrap_or(0.0));
            }
        });
        values.insert("harness.alone_share", alone_s / wall_s);
        counts.write(&mut values);

        let designs = self.designs.len() as u64;
        let alone = distinct_apps(&self.mixes).len() as u64;
        let cores: u64 = self.mixes.iter().map(|m| m.cores() as u64).sum();
        self.round = Round {
            wall_s,
            reqs: counts.rng_completions,
            // Every core of every design run, plus one core per baseline.
            instr: (cores * designs + alone) * self.instr,
            sim_cycles: counts.sim_cycles,
            attempted: designs * self.mixes.len() as u64 + alone,
            failed: counts.hit_cycle_limit,
            fingerprint: 0,
        };
        // The simulated metrics and the fingerprint come from the entry
        // point users call, so a change that breaks the harness shows.
        let (sim, hash) = self.evaluate(false);
        values.extend(sim);
        self.round.fingerprint = hash;
        Account {
            round: self.round,
            values,
        }
    }

    fn timed(&mut self) -> Round {
        let (wall_s, (_, hash)) = timed(|| self.evaluate(false));
        Round {
            wall_s,
            fingerprint: hash,
            ..self.round
        }
    }

    fn checks(&mut self) -> Vec<Check> {
        // One memory-bound and one compute-bound mix, both modes, every
        // design of the matrix.
        let picks = [
            self.classes
                .iter()
                .position(|&c| c == 'H')
                .expect("an H-class mix"),
            self.classes
                .iter()
                .position(|&c| c == 'L')
                .expect("an L-class mix"),
        ];
        let mut off = Tracer::new(false);
        let mut out = Vec::new();
        for &w in &picks {
            for &design in self.designs {
                let mut run = |mode| {
                    run_cell(
                        &mut off,
                        0,
                        design,
                        &self.mixes[w],
                        CHECK_INSTR,
                        mode,
                        &mut Counts::default(),
                    )
                };
                let (reference, fast) = (run(SimMode::Reference), run(SimMode::FastForward));
                out.push(Check::same(
                    "reference_equals_fastforward",
                    &reference,
                    &fast,
                ));
                out.push(Check::new(
                    "no_cycle_limit",
                    !reference.hit_cycle_limit && !fast.hit_cycle_limit,
                    format!("{} under {}", self.mixes[w].name, design.label()),
                ));
            }
        }
        out
    }

    fn extras(&mut self, round_s: f64, _handoff: &Handoff, out: &mut Values) {
        // Report-only: it moves with the host's core count.
        let (par_s, _) = timed(|| self.evaluate(true));
        out.insert("harness.par_speedup", round_s / par_s);
    }
}
