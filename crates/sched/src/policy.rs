//! Thread-to-core allocation policies.
//!
//! A policy sees, once per quantum, the four PMU events of every running
//! application plus the current placement, and may re-place applications on
//! hardware-thread slots (the `sched_setaffinity` analogue). This is the
//! exact interface the paper's user-level manager works against.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::collections::HashMap;
use synpa_matching::{min_cost_lower_bound, min_cost_pairing, MatcherStats, Pairing};
use synpa_model::{invert, Categories, SynpaModel};
use synpa_sim::{PmuDelta, Slot};

/// Everything a policy may observe at a quantum boundary.
#[derive(Debug)]
pub struct QuantumView<'a> {
    /// Quantum ordinal (0 = first decision).
    pub quantum: u64,
    /// Per-application counter deltas over the elapsed quantum.
    pub samples: &'a [(usize, PmuDelta)],
    /// Current placement (app id → slot).
    pub placement: &'a [(usize, Slot)],
    /// SMT contexts per core: always 2, [`synpa_sim::SMT_CONTEXTS`]. The
    /// quantum loop fills it from that constant and nothing in the
    /// workspace reads it. It remains because the benchmark (`synbench/`,
    /// a separate workspace) builds views by struct literal and copies it.
    pub smt_ways: usize,
    /// Dispatch width (needed for the category characterization).
    pub dispatch_width: u32,
    /// Apps whose sample this quantum was degraded (clamped, held over, or
    /// missing — see `synpa_counters::SampleStatus`). Their rows in
    /// `samples`, if present, are replays or saturated clamps, not fresh
    /// measurements; estimate-updating policies must not learn from them.
    /// Empty whenever every read was healthy — the fault-free case.
    pub degraded: &'a [usize],
    /// Per-core availability mask (`true` = in service), indexed by core.
    /// Empty means every core is available — the healthy fast path, and
    /// what every pre-chip-fault caller passes. Policies must only emit
    /// placements onto available cores.
    pub availability: &'a [bool],
    /// Apps evacuated from failing cores at this quantum boundary. Losing
    /// capacity mid-run is severe for an estimate-driven policy (the
    /// survivors' samples were shaped by the disruption), so this feeds
    /// the same hysteretic guardrail machine as degraded samples.
    pub evacuated: usize,
}

impl QuantumView<'_> {
    /// Current co-runner pairs, as `(app_on_ctx0, app_on_ctx1)` per core.
    pub fn pairs(&self) -> Vec<(usize, usize)> {
        let mut by_core: std::collections::BTreeMap<usize, Vec<(usize, usize)>> =
            std::collections::BTreeMap::new();
        for &(app, slot) in self.placement {
            by_core
                .entry(slot.core())
                .or_default()
                .push((slot.ctx(), app));
        }
        by_core
            .into_values()
            .filter(|v| v.len() == 2)
            .map(|mut v| {
                v.sort_unstable();
                (v[0].1, v[1].1)
            })
            .collect()
    }

    /// Applications running alone on their core (no SMT co-runner), in
    /// core order. Non-empty whenever the placed thread count is odd or
    /// the placement leaves half-empty cores — both legal in the
    /// open-system regime where apps detach on completion.
    pub fn singles(&self) -> Vec<usize> {
        let mut by_core: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for &(app, slot) in self.placement {
            by_core.entry(slot.core()).or_default().push(app);
        }
        by_core
            .into_values()
            .filter(|v| v.len() == 1)
            .map(|v| v[0])
            .collect()
    }

    /// The counter delta of one application, if sampled this quantum.
    pub fn delta_of(&self, app: usize) -> Option<&PmuDelta> {
        self.samples
            .iter()
            .find(|(id, _)| *id == app)
            .map(|(_, d)| d)
    }

    /// Whether this app's sample was degraded this quantum.
    pub fn is_degraded(&self, app: usize) -> bool {
        self.degraded.contains(&app)
    }
}

/// Degraded-mode guardrail counters of an estimate-driven policy (how
/// often it refused to act on bad samples). Baselines report `None` from
/// [`Policy::guardrail_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct GuardrailStats {
    /// Times the policy entered fallback (hold pairing, no migrations).
    pub fallback_entries: u64,
    /// Quanta spent in fallback.
    pub fallback_quanta: u64,
}

/// A thread-to-core allocation policy.
pub trait Policy: Send {
    /// Human-readable policy name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Decides the placement for the next quantum. `None` keeps the current
    /// placement (no migrations).
    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>>;

    /// Matching-layer counters, if this policy drives a pairing matcher
    /// whose per-quantum work is worth reporting (how many quanta the
    /// lower bound answered, how many solved). Baselines return `None`.
    fn matcher_stats(&self) -> Option<MatcherStats> {
        None
    }

    /// Degraded-mode guardrail counters, if this policy tracks sample
    /// health and can enter fallback. Baselines return `None`.
    fn guardrail_stats(&self) -> Option<GuardrailStats> {
        None
    }
}

/// One application's per-quantum row, as [`RowLog`] records it.
#[derive(Debug, Clone, Copy)]
pub struct QuantumRow {
    /// Quantum ordinal.
    pub quantum: u64,
    /// Application id (workload arrival index).
    pub app: usize,
    /// Measured SMT categories (CPI components) this quantum.
    pub categories: Categories,
    /// Co-runner app id during this quantum (the app itself when alone).
    pub co_runner: usize,
    /// Instructions retired this quantum.
    pub retired: u64,
    /// Cycles observed this quantum.
    pub cycles: u64,
}

impl QuantumRow {
    /// Dominant dispatch-stall behaviour this quantum: `true` if frontend
    /// stalls exceed backend stalls (used by the Table V classification).
    pub fn is_frontend_behaving(&self) -> bool {
        self.categories.frontend > self.categories.backend
    }
}

/// A [`Policy`] decorator that records one [`QuantumRow`] per sampled app
/// per decision, in sample order (ascending app id in the closed batch),
/// then delegates. A run without one keeps no rows.
pub struct RowLog<'a> {
    inner: &'a mut dyn Policy,
    /// The rows recorded so far, in decision order.
    pub rows: Vec<QuantumRow>,
}

impl<'a> RowLog<'a> {
    /// Records around `inner`.
    pub fn new(inner: &'a mut dyn Policy) -> Self {
        let rows = Vec::new();
        RowLog { inner, rows }
    }
}

impl Policy for RowLog<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        for &(app, ref delta) in view.samples {
            let placed = view.placement.iter().find(|&&(a, _)| a == app);
            let core = placed.expect("only placed apps are sampled").1.core();
            let co_runner = view
                .placement
                .iter()
                .find(|&&(a, s)| a != app && s.core() == core)
                .map_or(app, |&(a, _)| a);
            self.rows.push(QuantumRow {
                quantum: view.quantum,
                app,
                categories: Categories::from_delta(delta, view.dispatch_width),
                co_runner,
                retired: delta.inst_retired,
                cycles: delta.cpu_cycles,
            });
        }
        self.inner.decide(view)
    }

    fn matcher_stats(&self) -> Option<MatcherStats> {
        self.inner.matcher_stats()
    }

    fn guardrail_stats(&self) -> Option<GuardrailStats> {
        self.inner.guardrail_stats()
    }
}

/// Assigns allocation units — SMT pairs plus unpaired singles — to cores,
/// keeping each unit on a core that already hosts one of its members when
/// possible (minimizes migrations). A single occupies context 0 of its
/// core and the other context stays empty, so odd placed-thread counts are
/// first-class: this is the placement path every pairing policy shares
/// once apps may arrive and leave freely.
///
/// `availability` is the per-core service mask (`true` = in service); an
/// empty mask means every core is available, and the assignment is then
/// byte-identical to the pre-mask behaviour. With a mask, units are placed
/// onto the first `n_units` *available* cores (there are always enough:
/// every currently placed app sits on an available core, and a core hosts
/// at most one unit).
pub fn units_to_slots(
    pairs: &[(usize, usize)],
    singles: &[usize],
    current: &[(usize, Slot)],
    availability: &[bool],
) -> Vec<(usize, Slot)> {
    let core_of = |app: usize| -> Option<usize> {
        current
            .iter()
            .find(|&&(a, _)| a == app)
            .map(|&(_, s)| s.core())
    };
    let n_units = pairs.len() + singles.len();
    // Candidate cores in index order: with no mask the first `n_units`
    // cores, otherwise the first `n_units` available ones.
    let candidates: Vec<usize> = if availability.is_empty() {
        (0..n_units).collect()
    } else {
        let avail: Vec<usize> = availability
            .iter()
            .enumerate()
            .filter(|&(_, &up)| up)
            .map(|(c, _)| c)
            .take(n_units)
            .collect();
        assert!(
            avail.len() == n_units,
            "{n_units} allocation units need {n_units} available cores, have {}",
            avail.len()
        );
        avail
    };
    let rank_of: std::collections::HashMap<usize, usize> = candidates
        .iter()
        .enumerate()
        .map(|(rank, &c)| (c, rank))
        .collect();
    let members = |i: usize| -> [Option<usize>; 2] {
        if i < pairs.len() {
            [Some(pairs[i].0), Some(pairs[i].1)]
        } else {
            [Some(singles[i - pairs.len()]), None]
        }
    };
    let mut taken = vec![false; n_units];
    let mut assignment: Vec<Option<usize>> = vec![None; n_units];
    // First pass: units that can stay on one member's current core.
    for (i, slot) in assignment.iter_mut().enumerate() {
        for app in members(i).into_iter().flatten() {
            if let Some(c) = core_of(app) {
                if let Some(&rank) = rank_of.get(&c) {
                    if !taken[rank] {
                        taken[rank] = true;
                        *slot = Some(rank);
                        break;
                    }
                }
            }
        }
    }
    // Second pass: everything else takes a free candidate.
    let mut free = (0..n_units).filter(|&r| !taken[r]).collect::<Vec<_>>();
    for slot in &mut assignment {
        if slot.is_none() {
            *slot = Some(free.pop().expect("candidates and units are 1:1"));
        }
    }
    (0..n_units)
        .flat_map(|i| {
            let c = candidates[assignment[i].unwrap()];
            match members(i) {
                [Some(a), Some(b)] => vec![(a, Slot::new(c, 0)), (b, Slot::new(c, 1))],
                [Some(a), None] => vec![(a, Slot::new(c, 0))],
                _ => unreachable!("a unit has one or two members"),
            }
        })
        .collect()
}

/// Minimum-cost assignment of the `n` apps behind `costs` into SMT pairs
/// plus (for odd `n`) one single. Even matrices go straight to `matcher`;
/// odd ones are padded with a virtual app whose edges all cost `pad_cost`,
/// and whoever the matcher pairs with it runs alone. A constant pad cost
/// leaves the *choice* of single entirely to the real edges (the matcher
/// minimizes the sum over real pairs), so any constant works for an
/// optimal matcher; greedy callers pass a large pad so the dummy edge is
/// considered last and the single is the natural leftover.
fn paired_assignment(
    costs: &[Vec<f64>],
    pad_cost: f64,
    matcher: impl FnOnce(&[Vec<f64>]) -> Pairing,
) -> (Vec<(usize, usize)>, Vec<usize>) {
    split_virtual(matcher(&even_costs(costs, pad_cost)), costs.len())
}

/// `costs` as the matcher sees it: unchanged for an even count, padded
/// with a virtual app (every edge `pad_cost`) for an odd one.
fn even_costs(costs: &[Vec<f64>], pad_cost: f64) -> Cow<'_, [Vec<f64>]> {
    let n = costs.len();
    if n % 2 == 0 {
        return Cow::Borrowed(costs);
    }
    Cow::Owned(
        costs
            .iter()
            .map(|row| {
                let mut row = row.clone();
                row.push(pad_cost);
                row
            })
            .chain(std::iter::once(vec![pad_cost; n + 1]))
            .collect(),
    )
}

/// Splits a pairing over [`even_costs`] of `n` apps into real pairs and
/// the apps paired with the virtual app (which run alone).
fn split_virtual(pairing: Pairing, n: usize) -> (Vec<(usize, usize)>, Vec<usize>) {
    let mut pairs = Vec::with_capacity(n / 2);
    let mut singles = Vec::new();
    for (a, b) in pairing.pairs {
        if b == n {
            singles.push(a);
        } else {
            pairs.push((a, b));
        }
    }
    (pairs, singles)
}

/// Pad cost for greedy matchers: far above any plausible predicted
/// slowdown, so the dummy edge sorts last and the single is the leftover.
const GREEDY_PAD: f64 = 1e30;

/// The placed apps in id order, or `None` while nothing is placed or any
/// placed app lacks an ST value in `st`. Id order makes cost-matrix index
/// `i` name the same app whatever order the view lists the placement in,
/// so a SYNPA-family decision never depends on that order and ties break
/// the same way every quantum.
fn estimated_apps(view: &QuantumView<'_>, st: &HashMap<usize, Categories>) -> Option<Vec<usize>> {
    let mut apps: Vec<usize> = view.placement.iter().map(|&(a, _)| a).collect();
    apps.sort_unstable();
    (!apps.is_empty() && apps.iter().all(|a| st.contains_key(a))).then_some(apps)
}

/// The SYNPA cost matrix over `apps`: `costs[i][j]` is the model's
/// predicted slowdown of `apps[i]` when co-running with `apps[j]`, from
/// their ST values in `st`; the diagonal is zero. Every SYNPA-family
/// policy prices pairings through this one function.
fn slowdown_costs(
    model: &SynpaModel,
    apps: &[usize],
    st: &HashMap<usize, Categories>,
) -> Vec<Vec<f64>> {
    let st: Vec<&Categories> = apps.iter().map(|a| &st[a]).collect();
    (0..apps.len())
        .map(|i| {
            (0..apps.len())
                .map(|j| {
                    if i == j {
                        0.0
                    } else {
                        model.predict_slowdown(st[i], st[j])
                    }
                })
                .collect()
        })
        .collect()
}

/// Places a pairing over cost-matrix indices (pairs plus singles, as
/// [`split_virtual`] returns it) by mapping each index back to its app in
/// `apps` and handing the units to [`units_to_slots`].
fn place(
    apps: &[usize],
    (idx_pairs, idx_singles): (Vec<(usize, usize)>, Vec<usize>),
    view: &QuantumView<'_>,
) -> Vec<(usize, Slot)> {
    let pairs: Vec<(usize, usize)> = idx_pairs.iter().map(|&(i, j)| (apps[i], apps[j])).collect();
    let singles: Vec<usize> = idx_singles.iter().map(|&i| apps[i]).collect();
    units_to_slots(&pairs, &singles, view.placement, view.availability)
}

/// The Linux-CFS-like baseline of the paper (§VI-C): applications are
/// paired by arrival order (app *k* with app *k + n/2*) and never migrate —
/// "once allocated, an application remains in the core until its execution
/// finishes". The initial placement already encodes this, so the policy
/// never moves anything.
#[derive(Debug, Default)]
pub struct LinuxLike;

impl Policy for LinuxLike {
    fn name(&self) -> &'static str {
        "linux"
    }

    fn decide(&mut self, _view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        None
    }
}

/// Uniform-random perfect pairing every quantum. A sanity baseline: pays
/// migration costs without any intelligence.
pub struct RandomPairing {
    rng: StdRng,
}

impl RandomPairing {
    /// Seeded for reproducibility.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl Policy for RandomPairing {
    fn name(&self) -> &'static str {
        "random"
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        let mut apps: Vec<usize> = view.placement.iter().map(|&(a, _)| a).collect();
        apps.shuffle(&mut self.rng);
        let pairs: Vec<(usize, usize)> = apps.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        // Odd placed count: the shuffle's leftover app runs alone.
        let singles = apps.chunks_exact(2).remainder();
        Some(units_to_slots(
            &pairs,
            singles,
            view.placement,
            view.availability,
        ))
    }
}

/// The SYNPA policy (§IV-B): per quantum, characterize each thread's SMT
/// categories, invert the model per current pair to estimate ST values,
/// predict the slowdown of every possible pair, and select the globally
/// optimal pairing with the Blossom algorithm.
pub struct Synpa {
    model: SynpaModel,
    /// Latest ST estimate per app id (kept across quanta so estimates
    /// survive short sampling hiccups).
    st_estimates: HashMap<usize, Categories>,
    /// Exponential smoothing factor for ST estimates across quanta
    /// (1.0 = use only the latest quantum; lower values damp sampling noise
    /// so near-tie pairings don't flip every quantum).
    pub smoothing: f64,
    /// Minimum fractional predicted improvement required to migrate. The
    /// quantum is short relative to the cold-cache cost of a move, so
    /// re-pairing for sub-percent predicted gains loses money.
    pub hysteresis: f64,
    /// Minimum quanta between migrations (cold caches need time to
    /// re-warm before the next decision is trustworthy).
    pub cooldown: u64,
    /// Guardrail K: consecutive severely-degraded quanta (at least half
    /// the placed rows degraded) before entering fallback — hold the
    /// current pairing, no migrations, LinuxLike-equivalent behaviour.
    pub fallback_after: u64,
    /// Guardrail R (hysteresis): consecutive fully-clean quanta required
    /// to leave fallback. Separate from K so the policy doesn't flap at
    /// the degradation boundary.
    pub recover_after: u64,
    degraded_streak: u64,
    clean_streak: u64,
    in_fallback: bool,
    fallback_entries: u64,
    fallback_quanta: u64,
    last_migration: Option<u64>,
    /// How the pairing quanta were answered (lower bound or solve).
    matcher_stats: MatcherStats,
}

impl Synpa {
    /// Builds the policy around trained model coefficients.
    pub fn new(model: SynpaModel) -> Self {
        Self {
            model,
            st_estimates: HashMap::new(),
            smoothing: 0.6,
            hysteresis: 0.02,
            cooldown: 3,
            fallback_after: 4,
            recover_after: 4,
            degraded_streak: 0,
            clean_streak: 0,
            in_fallback: false,
            fallback_entries: 0,
            fallback_quanta: 0,
            last_migration: None,
            matcher_stats: MatcherStats::default(),
        }
    }

    /// Disables smoothing and hysteresis (decisions from the latest quantum
    /// only — the paper's literal per-quantum behaviour).
    pub fn without_damping(mut self) -> Self {
        self.smoothing = 1.0;
        self.hysteresis = 0.0;
        self.cooldown = 0;
        self
    }

    /// Blends a fresh ST observation into the running estimate with the
    /// policy's smoothing factor (the first observation is taken whole).
    fn absorb(&mut self, app: usize, st: Categories) {
        let alpha = self.smoothing;
        let entry = self.st_estimates.entry(app).or_insert(st);
        *entry = Categories::from_array([
            entry.as_array()[0] * (1.0 - alpha) + st.as_array()[0] * alpha,
            entry.as_array()[1] * (1.0 - alpha) + st.as_array()[1] * alpha,
            entry.as_array()[2] * (1.0 - alpha) + st.as_array()[2] * alpha,
        ]);
    }

    /// Current ST estimate of an app (for diagnostics).
    pub fn st_estimate(&self, app: usize) -> Option<&Categories> {
        self.st_estimates.get(&app)
    }

    /// Whether the guardrails currently hold the policy in fallback.
    pub fn in_fallback(&self) -> bool {
        self.in_fallback
    }

    /// Advances the degraded/clean streaks and the fallback state machine
    /// for one quantum. Returns `true` when this quantum must be spent in
    /// fallback (hold the pairing). With healthy samples (`degraded`
    /// empty every quantum) this never fires and never changes a decision.
    fn update_guardrails(&mut self, view: &QuantumView<'_>) -> bool {
        let placed = view.placement.len();
        // Capacity loss (evacuations off failing cores) counts as severe in
        // its own right: the survivors' samples were shaped by the
        // disruption, whatever their individual health.
        let severe = (placed > 0 && view.degraded.len() * 2 >= placed) || view.evacuated > 0;
        self.degraded_streak = if severe { self.degraded_streak + 1 } else { 0 };
        self.clean_streak = if placed > 0 && view.degraded.is_empty() && view.evacuated == 0 {
            self.clean_streak + 1
        } else {
            0
        };
        if !self.in_fallback && self.degraded_streak >= self.fallback_after {
            self.in_fallback = true;
            self.fallback_entries += 1;
        }
        if self.in_fallback && self.clean_streak >= self.recover_after {
            self.in_fallback = false;
        }
        if self.in_fallback {
            self.fallback_quanta += 1;
        }
        self.in_fallback
    }
}

impl Policy for Synpa {
    fn name(&self) -> &'static str {
        "synpa"
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        // Guardrails first: track sample-health streaks and the fallback
        // state machine (see docs/robustness.md). The absorption below
        // still integrates every *clean* sample even while in fallback,
        // so recovery resumes from live estimates.
        let in_fallback = self.update_guardrails(view);
        // Step 1: invert the model per current pair to recover ST values.
        // A degraded row (clamped, held over, or missing) is a replay or a
        // saturated clamp, not a measurement: the app keeps (re-uses) its
        // previous ST estimate instead of absorbing garbage, and inversion
        // is skipped for the whole pair — the co-runner's delta was shaped
        // by the same quantum the bad sample failed to measure.
        for (a, b) in view.pairs() {
            if view.is_degraded(a) || view.is_degraded(b) {
                continue;
            }
            let (Some(da), Some(db)) = (view.delta_of(a), view.delta_of(b)) else {
                continue;
            };
            if da.inst_retired == 0 || db.inst_retired == 0 {
                continue;
            }
            let smt_a = Categories::from_delta(da, view.dispatch_width);
            let smt_b = Categories::from_delta(db, view.dispatch_width);
            let (st_a, st_b) = invert(&self.model, &smt_a, &smt_b);
            self.absorb(a, st_a);
            self.absorb(b, st_b);
        }
        // An app alone on its core has no co-runner: its measured
        // categories *are* its single-threaded values — no inversion
        // needed. This is how singles (odd counts, half-empty cores under
        // churn) enter the estimate pool.
        for s in view.singles() {
            if view.is_degraded(s) {
                continue;
            }
            let Some(d) = view.delta_of(s) else {
                continue;
            };
            if d.inst_retired == 0 {
                continue;
            }
            let st = Categories::from_delta(d, view.dispatch_width);
            self.absorb(s, st);
        }
        // Fallback holds the current pairing outright (no migrations —
        // LinuxLike-equivalent) until the hysteretic recovery in
        // `update_guardrails` sees enough consecutive clean quanta.
        if in_fallback {
            return None;
        }

        // Until every app has an estimate, keep the current placement.
        let apps = estimated_apps(view, &self.st_estimates)?;

        // Cooldown early-out, hoisted above the cost matrix and the
        // matching: a cooled-down quantum returns None regardless of what
        // the solve would say, so don't pay for it. (The PMU absorption
        // above still runs every quantum — the damped estimates must keep
        // integrating samples or post-cooldown decisions would change.)
        // Hysteresis and cooldown are both pure predicates and
        // `last_migration` is only written when both pass, so checking
        // cooldown first yields byte-identical decisions.
        if let Some(last) = self.last_migration {
            if view.quantum < last + self.cooldown {
                return None;
            }
        }

        // Step 2: predict the slowdown of every pair.
        let costs = slowdown_costs(&self.model, &apps, &self.st_estimates);

        // Hysteresis: migrate only for a material predicted gain over the
        // current pairing. Singles contribute no SMT interference on either
        // side, so only full pairs enter the sums.
        let idx_of: HashMap<usize, usize> = apps.iter().enumerate().map(|(i, &a)| (a, i)).collect();
        let current_cost: f64 = view
            .pairs()
            .iter()
            .map(|&(a, b)| costs[idx_of[&a]][idx_of[&b]] + costs[idx_of[&b]][idx_of[&a]])
            .sum();
        let threshold = current_cost * (1.0 - self.hysteresis);

        // Step 3: optimal pairing (odd counts leave one app single via
        // the zero-cost virtual node), then place with minimal moves.
        // Bound first: when the fractional-matching lower bound on the
        // optimum (a `total_cost`, so 2x in pair-cost units) already
        // reaches the threshold, hysteresis would reject whatever the
        // blossom returned, so it does not run. Decisions are identical to
        // always solving (docs/matching.md).
        self.matcher_stats.calls += 1;
        let padded = even_costs(&costs, 0.0);
        let bound = 2.0 * min_cost_lower_bound(&padded);
        if bound >= threshold {
            self.matcher_stats.certificate_hits += 1;
            return None;
        }
        self.matcher_stats.cold_solves += 1;
        let units = split_virtual(min_cost_pairing(&padded), apps.len());
        let optimal_cost: f64 = units
            .0
            .iter()
            .map(|&(i, j)| costs[i][j] + costs[j][i])
            .sum();
        debug_assert!(
            bound <= optimal_cost,
            "lower bound {bound} above the solved cost {optimal_cost}"
        );
        if optimal_cost >= threshold {
            return None;
        }
        self.last_migration = Some(view.quantum);
        Some(place(&apps, units, view))
    }

    fn matcher_stats(&self) -> Option<MatcherStats> {
        Some(self.matcher_stats)
    }

    fn guardrail_stats(&self) -> Option<GuardrailStats> {
        Some(GuardrailStats {
            fallback_entries: self.fallback_entries,
            fallback_quanta: self.fallback_quanta,
        })
    }
}

/// A fixed pairing applied once at the first quantum and never revisited.
/// Used by the exhaustive ground-truth search
/// (`crates/experiments/examples/exhaustive_pairing.rs`) and handy for
/// pinning down a known-good allocation.
pub struct StaticPairs {
    pairs: Vec<(usize, usize)>,
    applied: bool,
}

impl StaticPairs {
    /// Builds the policy from explicit app-id pairs.
    pub fn new(pairs: Vec<(usize, usize)>) -> Self {
        Self {
            pairs,
            applied: false,
        }
    }
}

impl Policy for StaticPairs {
    fn name(&self) -> &'static str {
        "static"
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        if self.applied {
            return None;
        }
        self.applied = true;
        Some(units_to_slots(
            &self.pairs,
            &[],
            view.placement,
            view.availability,
        ))
    }
}

/// SYNPA with the greedy matcher instead of Blossom: same model, same
/// inversion, but pairs are chosen cheapest-edge-first. The matching
/// ablation — how much of SYNPA's gain is the *optimal* pairing?
pub struct GreedySynpa {
    inner: Synpa,
}

impl GreedySynpa {
    /// Wraps a SYNPA policy, replacing its matcher.
    pub fn new(model: SynpaModel) -> Self {
        Self {
            inner: Synpa::new(model),
        }
    }
}

impl Policy for GreedySynpa {
    fn name(&self) -> &'static str {
        "greedy-synpa"
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        // SYNPA's estimation and gates decide *whether* to migrate (a
        // decision implies every app has an estimate); the pairing is then
        // re-chosen greedily over the same predicted costs.
        self.inner.decide(view)?;
        let apps = estimated_apps(view, &self.inner.st_estimates)?;
        let costs = slowdown_costs(&self.inner.model, &apps, &self.inner.st_estimates);
        let units = paired_assignment(&costs, GREEDY_PAD, synpa_matching::greedy_min_pairing);
        Some(place(&apps, units, view))
    }

    fn guardrail_stats(&self) -> Option<GuardrailStats> {
        self.inner.guardrail_stats()
    }
}

/// Oracle variant of SYNPA: uses externally supplied *true* ST categories
/// (measured in isolation) instead of runtime inversion. Upper-bounds what
/// better inversion accuracy could buy — an ablation the experiments report.
pub struct OracleSynpa {
    model: SynpaModel,
    /// True ST categories per app id.
    st_true: HashMap<usize, Categories>,
}

impl OracleSynpa {
    /// Builds the oracle from measured isolated categories.
    pub fn new(model: SynpaModel, st_true: Vec<(usize, Categories)>) -> Self {
        Self {
            model,
            st_true: st_true.into_iter().collect(),
        }
    }
}

impl Policy for OracleSynpa {
    fn name(&self) -> &'static str {
        "oracle"
    }

    fn decide(&mut self, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        let apps = estimated_apps(view, &self.st_true)?;
        let costs = slowdown_costs(&self.model, &apps, &self.st_true);
        let units = paired_assignment(&costs, 0.0, min_cost_pairing);
        Some(place(&apps, units, view))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synpa_model::CategoryCoeffs;
    use synpa_sim::PmuCounters;

    fn placement8() -> Vec<(usize, Slot)> {
        // Linux arrival-order: app k pairs with app k+4 on core k.
        (0..4usize)
            .flat_map(|k| [(k, Slot::new(k, 0)), (k + 4, Slot::new(k, 1))])
            .collect()
    }

    fn model() -> SynpaModel {
        SynpaModel {
            full_dispatch: CategoryCoeffs {
                alpha: 0.0,
                beta: 1.0,
                gamma: 0.0,
                rho: 0.0,
            },
            frontend: CategoryCoeffs {
                alpha: 0.03,
                beta: 1.0,
                gamma: 0.0,
                rho: 0.0,
            },
            // The interaction term rho is what makes same-type pairs
            // superlinearly costly; with a purely linear model every perfect
            // matching has (almost) the same total cost.
            backend: CategoryCoeffs {
                alpha: 0.1,
                beta: 1.0,
                gamma: 0.1,
                rho: 0.8,
            },
        }
    }

    fn delta(fe: u64, be: u64) -> PmuDelta {
        PmuCounters {
            cpu_cycles: 1000,
            inst_spec: (1000 - fe - be) * 4,
            stall_frontend: fe,
            stall_backend: be,
            inst_retired: (1000 - fe - be) * 4,
            ..Default::default()
        }
    }

    #[test]
    fn view_pairs_groups_by_core() {
        let placement = placement8();
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        assert_eq!(view.pairs(), vec![(0, 4), (1, 5), (2, 6), (3, 7)]);
    }

    #[test]
    fn linux_never_migrates() {
        let placement = placement8();
        let view = QuantumView {
            quantum: 3,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        assert!(LinuxLike.decide(&view).is_none());
    }

    #[test]
    fn pairs_to_slots_is_a_valid_placement() {
        let placement = placement8();
        let pairs = vec![(0, 1), (2, 3), (4, 5), (6, 7)];
        let out = units_to_slots(&pairs, &[], &placement, &[]);
        let mut slots: Vec<usize> = out.iter().map(|&(_, s)| s.0).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..8).collect::<Vec<_>>());
        let mut apps: Vec<usize> = out.iter().map(|&(a, _)| a).collect();
        apps.sort_unstable();
        assert_eq!(apps, (0..8).collect::<Vec<_>>());
        // Paired apps share a core.
        for &(a, b) in &pairs {
            let core = |x: usize| out.iter().find(|&&(ap, _)| ap == x).unwrap().1.core();
            assert_eq!(core(a), core(b));
        }
    }

    #[test]
    fn pairs_to_slots_prefers_staying() {
        let placement = placement8();
        // Keep the exact same pairs: nobody should change cores.
        let pairs = vec![(0, 4), (1, 5), (2, 6), (3, 7)];
        let out = units_to_slots(&pairs, &[], &placement, &[]);
        for &(app, slot) in &out {
            let old = placement.iter().find(|&&(a, _)| a == app).unwrap().1;
            assert_eq!(slot.core(), old.core(), "app {app} should not move");
        }
    }

    fn assert_valid_odd_placement(out: &[(usize, Slot)], mut expect_apps: Vec<usize>) {
        let mut apps: Vec<usize> = out.iter().map(|&(a, _)| a).collect();
        apps.sort_unstable();
        expect_apps.sort_unstable();
        assert_eq!(apps, expect_apps, "every app placed exactly once");
        let mut slots: Vec<usize> = out.iter().map(|&(_, s)| s.0).collect();
        slots.sort_unstable();
        slots.dedup();
        assert_eq!(slots.len(), out.len(), "no slot hosts two apps");
        let mut per_core = std::collections::HashMap::new();
        for &(_, s) in out {
            *per_core.entry(s.core()).or_insert(0) += 1;
        }
        assert!(
            per_core.values().all(|&c| c <= 2),
            "at most one pair per core"
        );
    }

    #[test]
    fn units_to_slots_places_singles_alone() {
        let placement = placement8();
        let pairs = vec![(0, 4), (1, 5), (2, 6)];
        let singles = vec![3, 7];
        let out = units_to_slots(&pairs, &singles, &placement, &[]);
        assert_eq!(out.len(), 8);
        assert_valid_odd_placement(&out, (0..8).collect());
        let core = |x: usize| out.iter().find(|&&(a, _)| a == x).unwrap().1.core();
        for &(a, b) in &pairs {
            assert_eq!(core(a), core(b));
        }
        for &s in &singles {
            let c = core(s);
            let on_core = out.iter().filter(|&&(_, sl)| sl.core() == c).count();
            assert_eq!(on_core, 1, "single {s} shares core {c}");
        }
    }

    #[test]
    fn units_to_slots_all_available_mask_is_identical_to_no_mask() {
        let placement = placement8();
        let pairs = vec![(0, 4), (1, 5), (2, 6)];
        let singles = vec![3];
        assert_eq!(
            units_to_slots(&pairs, &singles, &placement, &[]),
            units_to_slots(&pairs, &singles, &placement, &[true; 4])
        );
    }

    #[test]
    fn units_to_slots_avoids_unavailable_cores() {
        // 6 apps in 3 pairs on a 4-core chip with core 1 out of service:
        // every emitted slot must land on cores {0, 2, 3}, and pairs that
        // can stay put (cores 0, 2) do.
        let placement: Vec<(usize, Slot)> = vec![
            (0, Slot(0)),
            (1, Slot(1)),
            (2, Slot(4)),
            (3, Slot(5)),
            (4, Slot(6)),
            (5, Slot(7)),
        ];
        let avail = [true, false, true, true];
        let pairs = vec![(0, 1), (2, 3), (4, 5)];
        let out = units_to_slots(&pairs, &[], &placement, &avail);
        assert_eq!(out.len(), 6);
        for &(app, slot) in &out {
            assert!(avail[slot.core()], "app {app} placed on offline core");
        }
        let core = |x: usize| out.iter().find(|&&(a, _)| a == x).unwrap().1.core();
        assert_eq!(core(0), 0, "pair (0,1) stays on its core");
        assert_eq!(core(2), 2, "pair (2,3) stays on its core");
        assert_eq!(core(4), 3, "pair (4,5) takes the remaining core");
    }

    #[test]
    #[should_panic(expected = "available cores")]
    fn units_to_slots_panics_when_capacity_is_short() {
        let placement = placement8();
        let pairs = vec![(0, 4), (1, 5), (2, 6), (3, 7)];
        // 4 units but only 3 available cores: impossible by construction.
        units_to_slots(&pairs, &[], &placement, &[true, true, true, false]);
    }

    #[test]
    fn random_pairing_handles_odd_counts() {
        // 5 apps: two pairs plus one single, all placed validly.
        let placement: Vec<(usize, Slot)> = (0..5usize).map(|a| (a, Slot(a))).collect();
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let out = RandomPairing::new(3).decide(&view).unwrap();
        assert_eq!(out.len(), 5);
        assert_valid_odd_placement(&out, (0..5).collect());
    }

    #[test]
    fn synpa_handles_odd_counts_with_a_single() {
        // 7 apps: 3 backend-ish, 4 frontend-ish, one app must run alone.
        let samples: Vec<(usize, PmuDelta)> = (0..7)
            .map(|a| {
                if a < 3 {
                    (a, delta(50, 700))
                } else {
                    (a, delta(500, 100))
                }
            })
            .collect();
        let segregated: Vec<(usize, Slot)> = (0..7usize).map(|a| (a, Slot(a))).collect();
        let mut policy = Synpa::new(model()).without_damping();
        let view = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &segregated,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let out = policy.decide(&view).expect("all 7 apps measurable");
        assert_eq!(out.len(), 7);
        assert_valid_odd_placement(&out, (0..7).collect());
    }

    #[test]
    fn synpa_estimates_singles_from_direct_measurement() {
        // One app alone on core 0, one pair on core 1: the single has no
        // co-runner to invert against, so its measured categories must
        // still produce an ST estimate (else the policy could never decide
        // in the open-system regime).
        let placement = vec![(0usize, Slot(0)), (1usize, Slot(2)), (2usize, Slot(3))];
        let samples: Vec<(usize, PmuDelta)> = vec![
            (0, delta(50, 700)),
            (1, delta(500, 100)),
            (2, delta(400, 200)),
        ];
        let mut policy = Synpa::new(model());
        let view = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let _ = policy.decide(&view);
        assert!(
            policy.st_estimate(0).is_some(),
            "single app 0 must be estimated from its own measurement"
        );
        assert!(policy.st_estimate(1).is_some());
        assert!(policy.st_estimate(2).is_some());
    }

    #[test]
    fn random_pairing_is_reproducible_and_valid() {
        let placement = placement8();
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let a = RandomPairing::new(7).decide(&view).unwrap();
        let b = RandomPairing::new(7).decide(&view).unwrap();
        assert_eq!(a, b);
        let mut slots: Vec<usize> = a.iter().map(|&(_, s)| s.0).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn synpa_waits_for_estimates_then_pairs_complementary() {
        let placement = placement8();
        // Apps 0-3 backend-ish, 4-7 frontend-ish.
        let samples: Vec<(usize, PmuDelta)> = (0..8)
            .map(|a| {
                if a < 4 {
                    (a, delta(50, 700))
                } else {
                    (a, delta(500, 100))
                }
            })
            .collect();
        let mut policy = Synpa::new(model());
        // Start from a segregated placement (BE with BE, FE with FE) so the
        // optimal pairing is materially better and hysteresis lets it pass.
        let segregated: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let view = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &segregated,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let decision = policy.decide(&view).expect("all apps sampled");
        let _ = &placement;
        // With backend gamma 0.8 > 0, BE+BE pairs are costly: every core
        // must host one backend app (0-3) and one frontend app (4-7).
        for core in 0..4 {
            let on_core: Vec<usize> = decision
                .iter()
                .filter(|&&(_, s)| s.core() == core)
                .map(|&(a, _)| a)
                .collect();
            assert_eq!(on_core.len(), 2);
            assert!(
                (on_core[0] < 4) != (on_core[1] < 4),
                "core {core} must mix groups: {on_core:?}"
            );
        }
    }

    #[test]
    fn synpa_keeps_placement_without_samples() {
        let placement = placement8();
        let mut policy = Synpa::new(model());
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        assert!(policy.decide(&view).is_none());
    }

    #[test]
    fn static_pairs_applies_once() {
        let placement = placement8();
        let mut policy = StaticPairs::new(vec![(0, 1), (2, 3), (4, 5), (6, 7)]);
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let first = policy.decide(&view).expect("applies at quantum 0");
        let core =
            |p: &[(usize, Slot)], x: usize| p.iter().find(|&&(a, _)| a == x).unwrap().1.core();
        assert_eq!(core(&first, 0), core(&first, 1));
        assert!(policy.decide(&view).is_none(), "never re-applies");
    }

    #[test]
    fn greedy_synpa_produces_valid_placement() {
        let samples: Vec<(usize, PmuDelta)> = (0..8)
            .map(|a| {
                if a < 4 {
                    (a, delta(50, 700))
                } else {
                    (a, delta(500, 100))
                }
            })
            .collect();
        let segregated: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let mut policy = GreedySynpa::new(model());
        let view = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &segregated,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let decision = policy.decide(&view).expect("decides");
        let mut slots: Vec<usize> = decision.iter().map(|&(_, s)| s.0).collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..8).collect::<Vec<_>>());
    }

    /// Degraded rows must not move ST estimates: a held/clamped sample
    /// re-uses the previous estimate instead of absorbing garbage.
    #[test]
    fn degraded_samples_never_update_estimates() {
        let placement = placement8();
        let samples: Vec<(usize, PmuDelta)> = (0..8)
            .map(|a| {
                if a < 4 {
                    (a, delta(50, 700))
                } else {
                    (a, delta(500, 100))
                }
            })
            .collect();
        let mut policy = Synpa::new(model());
        let clean = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let _ = policy.decide(&clean);
        let before = *policy.st_estimate(0).expect("estimated from quantum 0");
        // Same placement, wildly different (faulty) measurement for app 0,
        // but the row is flagged degraded: the estimate must not budge.
        let mut faulty_samples = samples.clone();
        faulty_samples[0].1 = delta(900, 50);
        let faulty = QuantumView {
            quantum: 1,
            samples: &faulty_samples,
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[0],
            availability: &[],
            evacuated: 0,
        };
        let _ = policy.decide(&faulty);
        assert_eq!(
            *policy.st_estimate(0).unwrap(),
            before,
            "degraded app 0 keeps its previous ST estimate"
        );
        // Its co-runner (app 4, same core) was measured against app 0's
        // faulty quantum, so it must not absorb either.
        let before4 = *policy.st_estimate(4).unwrap();
        let _ = policy.decide(&faulty);
        assert_eq!(*policy.st_estimate(4).unwrap(), before4);
    }

    /// K consecutive severely-degraded quanta enter fallback (decide
    /// always holds); R consecutive clean quanta recover, with the streak
    /// counters giving hysteresis (a single clean quantum mid-storm does
    /// not recover).
    #[test]
    fn fallback_enters_after_k_and_recovers_after_r_clean() {
        let samples: Vec<(usize, PmuDelta)> = (0..8)
            .map(|a| {
                if a < 4 {
                    (a, delta(50, 700))
                } else {
                    (a, delta(500, 100))
                }
            })
            .collect();
        let segregated: Vec<(usize, Slot)> = (0..8usize).map(|a| (a, Slot(a))).collect();
        let mut policy = Synpa::new(model()).without_damping();
        policy.fallback_after = 3;
        policy.recover_after = 2;
        let degraded_ids: Vec<usize> = (0..4).collect(); // half the rows
                                                         // Prime estimates with one clean quantum on the segregated layout.
        let clean = QuantumView {
            quantum: 0,
            samples: &samples,
            placement: &segregated,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        assert!(policy.decide(&clean).is_some(), "healthy policy decides");
        assert!(!policy.in_fallback());
        // Three severely-degraded quanta in a row: enters fallback on the
        // third.
        for q in 1..=3 {
            let v = QuantumView {
                quantum: q,
                samples: &samples,
                placement: &segregated,
                smt_ways: 2,
                dispatch_width: 4,
                degraded: &degraded_ids,
                availability: &[],
                evacuated: 0,
            };
            let d = policy.decide(&v);
            if q < 3 {
                assert!(!policy.in_fallback(), "quantum {q}: not yet");
            } else {
                assert!(policy.in_fallback(), "K=3 reached");
                assert!(d.is_none(), "fallback holds the pairing");
            }
        }
        // One clean quantum is not enough to recover (R=2)...
        let v1 = QuantumView {
            quantum: 4,
            samples: &samples,
            placement: &segregated,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        assert!(policy.decide(&v1).is_none());
        assert!(policy.in_fallback(), "one clean quantum: still in fallback");
        // ...the second clean quantum recovers, and the next decision acts.
        let v2 = QuantumView {
            quantum: 5,
            samples: &samples,
            placement: &segregated,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let _ = policy.decide(&v2);
        assert!(!policy.in_fallback(), "R=2 clean quanta recover");
        let stats = policy.guardrail_stats().unwrap();
        assert_eq!(stats.fallback_entries, 1);
        assert!(stats.fallback_quanta >= 2, "q3..q5 spent in fallback");
    }

    #[test]
    fn baselines_report_no_guardrail_stats() {
        assert!(LinuxLike.guardrail_stats().is_none());
        assert!(RandomPairing::new(1).guardrail_stats().is_none());
    }

    #[test]
    fn oracle_pairs_from_true_categories() {
        let placement = placement8();
        let st: Vec<(usize, Categories)> = (0..8)
            .map(|a| {
                let c = if a < 4 {
                    Categories {
                        full_dispatch: 0.25,
                        frontend: 0.05,
                        backend: 2.0,
                    }
                } else {
                    Categories {
                        full_dispatch: 0.25,
                        frontend: 0.8,
                        backend: 0.1,
                    }
                };
                (a, c)
            })
            .collect();
        let mut policy = OracleSynpa::new(model(), st);
        let view = QuantumView {
            quantum: 0,
            samples: &[],
            placement: &placement,
            smt_ways: 2,
            dispatch_width: 4,
            degraded: &[],
            availability: &[],
            evacuated: 0,
        };
        let decision = policy.decide(&view).unwrap();
        for core in 0..4 {
            let on_core: Vec<usize> = decision
                .iter()
                .filter(|&&(_, s)| s.core() == core)
                .map(|&(a, _)| a)
                .collect();
            assert!((on_core[0] < 4) != (on_core[1] < 4));
        }
    }

    /// A workload repeats benchmarks, so the oracle's true ST values tie
    /// and several pairings are equally optimal. Fed the chip's
    /// slot-sorted placement every quantum, the oracle must settle after
    /// its first decision instead of hopping between tied pairings.
    #[test]
    fn oracle_does_not_churn_on_repeated_apps() {
        let kinds = [
            Categories {
                full_dispatch: 0.25,
                frontend: 0.05,
                backend: 2.0,
            },
            Categories {
                full_dispatch: 0.25,
                frontend: 0.8,
                backend: 0.1,
            },
            Categories {
                full_dispatch: 0.6,
                frontend: 0.3,
                backend: 0.6,
            },
        ];
        // 12 apps, four copies of each kind, starting segregated.
        let st: Vec<(usize, Categories)> = (0..12).map(|a| (a, kinds[a % 3])).collect();
        let mut policy = OracleSynpa::new(model(), st);
        let mut placement: Vec<(usize, Slot)> = (0..12usize).map(|a| (a, Slot(a))).collect();
        for q in 0..8u64 {
            let view = QuantumView {
                quantum: q,
                samples: &[],
                placement: &placement,
                smt_ways: 2,
                dispatch_width: 4,
                degraded: &[],
                availability: &[],
                evacuated: 0,
            };
            let mut next = policy.decide(&view).expect("every app has a true ST");
            let core_of = |p: &[(usize, Slot)], app: usize| {
                p.iter().find(|&&(a, _)| a == app).unwrap().1.core()
            };
            let moved = (0..12)
                .filter(|&a| core_of(&placement, a) != core_of(&next, a))
                .count();
            if q == 0 {
                assert!(moved > 0, "the segregated start must be re-paired");
            } else {
                assert_eq!(moved, 0, "quantum {q}: tied pairings churned");
            }
            next.sort_unstable_by_key(|&(_, s)| s);
            placement = next;
        }
    }

    /// What `Synpa::decide` returned before the lower bound existed:
    /// always solve over the policy's cost matrix, then apply hysteresis.
    fn always_solve(p: &Synpa, view: &QuantumView<'_>) -> Option<Vec<(usize, Slot)>> {
        let apps = estimated_apps(view, &p.st_estimates).unwrap();
        let costs = slowdown_costs(&p.model, &apps, &p.st_estimates);
        let idx = |a: usize| apps.iter().position(|&x| x == a).unwrap();
        let current: f64 = view
            .pairs()
            .iter()
            .map(|&(a, b)| costs[idx(a)][idx(b)] + costs[idx(b)][idx(a)])
            .sum();
        let units = paired_assignment(&costs, 0.0, min_cost_pairing);
        let optimal: f64 = units
            .0
            .iter()
            .map(|&(i, j)| costs[i][j] + costs[j][i])
            .sum();
        if optimal >= current * (1.0 - p.hysteresis) {
            return None;
        }
        Some(place(&apps, units, view))
    }

    #[test]
    fn bound_gated_decisions_equal_always_solve_decisions() {
        // 56 apps on 28 cores with drifting stall mixes and one phase
        // change; app 55 detaches at q = 90, so the tail runs an odd count
        // through the zero-cost virtual node. Every pairing quantum is
        // checked against a solve over the same cost matrix (and `decide`
        // debug-asserts that the bound never exceeds the cost it solved).
        let mut policy = Synpa::new(model());
        let mut placement: Vec<(usize, Slot)> = (0..28usize)
            .flat_map(|k| [(k, Slot::new(k, 0)), (k + 28, Slot::new(k, 1))])
            .collect();
        let (mut migrations, mut checked) = (0, 0);
        for q in 0..140u64 {
            if q == 90 {
                placement.retain(|&(a, _)| a != 55);
            }
            let samples: Vec<(usize, PmuDelta)> = placement
                .iter()
                .map(|&(a, _)| {
                    let a = a as u64;
                    let wobble = (a * 7 + q * 13) % 17;
                    // Core k starts with two apps of the same class; at
                    // q = 60 half the apps switch class (a phase change).
                    if (a % 28 % 2 == 0) ^ (q >= 60 && a % 4 < 2) {
                        (a as usize, delta(30 + wobble, 700 - 2 * wobble))
                    } else {
                        (a as usize, delta(600 + 2 * wobble, 30 + wobble))
                    }
                })
                .collect();
            let view = QuantumView {
                quantum: q,
                samples: &samples,
                placement: &placement,
                smt_ways: 2,
                dispatch_width: 4,
                degraded: &[],
                availability: &[],
                evacuated: 0,
            };
            let calls = policy.matcher_stats.calls;
            let got = policy.decide(&view);
            if policy.matcher_stats.calls > calls {
                checked += 1;
                assert_eq!(got, always_solve(&policy, &view), "quantum {q}");
            }
            if let Some(p) = got {
                migrations += 1;
                placement = p;
                placement.sort_unstable();
            }
        }
        let stats = policy.matcher_stats;
        assert!(checked >= 100, "only {checked} pairing quanta: {stats:?}");
        assert!(migrations > 0, "the sequence must exercise migrations");
        assert_eq!(stats.calls, stats.certificate_hits + stats.cold_solves);
        assert!(
            stats.certificate_hits * 2 > stats.calls,
            "the bound must answer most quanta: {stats:?}"
        );
    }
}
