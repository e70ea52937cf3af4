//! Seeded request streams. Every stream is a pure function of the run
//! seed (and the client index): the server sees only the generated
//! requests, and the same seed replays the same traffic.

use std::collections::HashSet;

/// splitmix64: small, fast, and good enough to drive traffic choices.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for stream `stream` of run `seed`; distinct streams of
    /// one run (one per client) are decorrelated by a second mix.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut rng = Rng(seed ^ 0x5bd1_e995_9e37_79b9);
        let mixed = rng.next_u64() ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03);
        Rng(mixed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n ≥ 1`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }
}

/// One `/explore` body: each knob is either the server default (`None`)
/// or an explicit override. Equal values encode to equal bytes, and
/// distinct values to distinct result-cache keys.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct Explore {
    pub k: Option<u32>,
    pub interestingness: Option<&'static str>,
    /// Decimal text, so the struct stays `Eq`/`Hash`.
    pub min_support: Option<&'static str>,
    pub cfs_filter: Option<&'static str>,
    pub measure_filter: Option<&'static str>,
}

impl Explore {
    /// The JSON body, knobs in a fixed order (`{}` for the default).
    pub fn body(&self) -> String {
        let mut fields = Vec::new();
        if let Some(k) = self.k {
            fields.push(format!("\"k\":{k}"));
        }
        if let Some(h) = self.interestingness {
            fields.push(format!("\"interestingness\":\"{h}\""));
        }
        if let Some(ms) = self.min_support {
            fields.push(format!("\"min_support\":{ms}"));
        }
        if let Some(cfs) = self.cfs_filter {
            fields.push(format!("\"cfs_filter\":[\"{cfs}\"]"));
        }
        if let Some(m) = self.measure_filter {
            fields.push(format!("\"measure_filter\":[\"{m}\"]"));
        }
        format!("{{{}}}", fields.join(","))
    }
}

/// What one request does.
#[derive(Clone, Debug, PartialEq)]
pub enum Op {
    Explore(Explore),
    Reload,
}

/// One request against graph `graph` (an index into the workload's graph
/// list).
#[derive(Clone, Debug, PartialEq)]
pub struct Req {
    pub graph: usize,
    pub op: Op,
}

impl Req {
    pub fn explore(graph: usize, explore: Explore) -> Req {
        Req { graph, op: Op::Explore(explore) }
    }
}

/// `cold`: reload, then the default explore, forever. The reload bumps
/// the graph's generation, so no explore can be answered from any cache.
pub fn cold() -> impl Iterator<Item = Req> {
    (0..).map(|i| {
        if i % 2 == 0 {
            Req { graph: 0, op: Op::Reload }
        } else {
            Req::explore(0, Explore::default())
        }
    })
}

/// `k` overrides: the default (10), or 2..=25 but 10. Priming uses 1.
fn k_values() -> Vec<Option<u32>> {
    std::iter::once(None).chain((2..=25).filter(|k| *k != 10).map(Some)).collect()
}
const H_VALUES: [Option<&str>; 3] = [None, Some("skewness"), Some("kurtosis")];
const SUPPORT_VALUES: [Option<&str>; 7] =
    [None, Some("0.32"), Some("0.35"), Some("0.38"), Some("0.4"), Some("0.42"), Some("0.45")];
const CFS_VALUES: [Option<&str>; 3] = [None, Some("type:CEO"), Some("summary")];
const MEASURE_VALUES: [Option<&str>; 2] = [None, Some("netWorth")];

/// Share of `refine` session steps that re-send an earlier request.
///
/// An assumption, as is [`REFINE_EPISODE`]: no published log of analyst
/// sessions backs either figure. They set much of `refine`'s end-to-end
/// result: at 0.4 the p50 is a fast miss, at 0.6 it is a cache hit.
/// `baseline.json` records how p50 and throughput move with this share.
pub const REFINE_REPEAT_SHARE: f64 = 0.4;

/// New requests per `refine` episode before the analyst starts over.
pub const REFINE_EPISODE: usize = 6;

/// `refine`: one analyst session on graph `graph`, as a sequence of short
/// episodes. The first episode opens with the default body, later ones
/// with a fresh point of the knob grid (a new first look); within an
/// episode each step either re-sends an earlier request of the session
/// (an exact repeat, [`REFINE_REPEAT_SHARE`] of steps) or refines the
/// current request by changing one knob (`k`, `interestingness`,
/// `min_support`, `cfs_filter` or `measure_filter`, in turn) to a value
/// the session has not asked for yet. Short episodes keep the cost of
/// successive requests from drifting together for long stretches, so a
/// run's mix does not hinge on where one long walk wandered. The grid has
/// 3024 points per graph, several times what a session sends in a run, so
/// new requests stay easy to find and the mix does not drift toward
/// repeats.
pub struct Session {
    rng: Rng,
    graph: usize,
    current: Option<Explore>,
    history: Vec<Explore>,
    seen: HashSet<Explore>,
}

impl Session {
    pub fn new(seed: u64, client: usize, graph: usize) -> Session {
        Session {
            rng: Rng::new(seed, 0x7265_6669_0000 + client as u64),
            graph,
            current: None,
            history: Vec::new(),
            seen: HashSet::new(),
        }
    }

    fn refine(&mut self, from: &Explore) -> Option<Explore> {
        // The knob turns rotate, so every episode touches each knob once.
        let turn = self.history.len();
        for attempt in 0..16 {
            let mut next = from.clone();
            let knob = (turn + attempt) % 5;
            let r = &mut self.rng;
            let changed = match knob {
                0 => pick_other(r, &k_values(), &mut next.k),
                1 => pick_other(r, &H_VALUES, &mut next.interestingness),
                2 => pick_other(r, &SUPPORT_VALUES, &mut next.min_support),
                3 => pick_other(r, &CFS_VALUES, &mut next.cfs_filter),
                _ => pick_other(r, &MEASURE_VALUES, &mut next.measure_filter),
            };
            if changed && !self.seen.contains(&next) {
                return Some(next);
            }
        }
        None
    }

    /// A grid point the session has not sent, if one turns up quickly.
    /// Episodes cycle through the CFS filters, the knob that moves the
    /// cost of a request most, so every run gets the same mix of them.
    fn first_look(&mut self) -> Option<Explore> {
        let cfs_filter = CFS_VALUES[self.history.len() / REFINE_EPISODE % CFS_VALUES.len()];
        let ks = k_values();
        (0..64).find_map(|_| {
            let r = &mut self.rng;
            let e = Explore {
                k: ks[r.below(ks.len())],
                interestingness: H_VALUES[r.below(H_VALUES.len())],
                min_support: SUPPORT_VALUES[r.below(SUPPORT_VALUES.len())],
                cfs_filter,
                measure_filter: MEASURE_VALUES[r.below(MEASURE_VALUES.len())],
            };
            (!self.seen.contains(&e)).then_some(e)
        })
    }

    fn next_explore(&mut self) -> Explore {
        let Some(current) = self.current.clone() else {
            return Explore::default();
        };
        if self.rng.unit() >= REFINE_REPEAT_SHARE {
            let next = if self.history.len().is_multiple_of(REFINE_EPISODE) {
                self.first_look()
            } else {
                self.refine(&current)
            };
            if let Some(next) = next {
                return next;
            }
        }
        self.history[self.rng.below(self.history.len())].clone()
    }
}

fn pick_other<T: Copy + PartialEq>(rng: &mut Rng, values: &[T], slot: &mut T) -> bool {
    let others: Vec<T> = values.iter().copied().filter(|v| v != slot).collect();
    if others.is_empty() {
        return false;
    }
    *slot = others[rng.below(others.len())];
    true
}

impl Iterator for Session {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let explore = self.next_explore();
        if self.seen.insert(explore.clone()) {
            self.history.push(explore.clone());
        }
        self.current = Some(explore.clone());
        Some(Req::explore(self.graph, explore))
    }
}

/// Properties of the traffic a run actually sent: how much of it a
/// result cache can answer (exact repeats of an earlier request on the
/// same graph generation), how much shares a generation and CFS filter
/// with an earlier request without repeating it (what a cache of
/// generation-scoped intermediates could reuse), and how requests spread
/// over graphs. Requests sent while priming count as earlier requests but
/// not in the shares.
pub struct StreamStats {
    generation: Vec<u64>,
    seen: HashSet<(usize, u64, Explore)>,
    seen_cfs: HashSet<(usize, u64, Option<&'static str>)>,
    pub explores: usize,
    pub reloads: usize,
    pub exact_repeats: usize,
    pub shared_cfs_refinements: usize,
    pub per_graph: Vec<usize>,
}

impl StreamStats {
    pub fn new(graphs: usize) -> StreamStats {
        StreamStats {
            generation: vec![0; graphs],
            seen: HashSet::new(),
            seen_cfs: HashSet::new(),
            explores: 0,
            reloads: 0,
            exact_repeats: 0,
            shared_cfs_refinements: 0,
            per_graph: vec![0; graphs],
        }
    }

    /// Records a priming request: later requests may repeat it.
    pub fn prime(&mut self, req: &Req) {
        if let Op::Explore(e) = &req.op {
            let g = self.generation[req.graph];
            self.seen.insert((req.graph, g, e.clone()));
            self.seen_cfs.insert((req.graph, g, e.cfs_filter));
        }
    }

    pub fn observe(&mut self, req: &Req) {
        self.per_graph[req.graph] += 1;
        match &req.op {
            Op::Reload => {
                self.reloads += 1;
                self.generation[req.graph] += 1;
            }
            Op::Explore(e) => {
                self.explores += 1;
                let g = self.generation[req.graph];
                if !self.seen.insert((req.graph, g, e.clone())) {
                    self.exact_repeats += 1;
                } else if !self.seen_cfs.insert((req.graph, g, e.cfs_filter)) {
                    self.shared_cfs_refinements += 1;
                }
            }
        }
    }

    /// Distinct `(graph, generation, body)` explores seen, priming included.
    pub fn distinct(&self) -> usize {
        self.seen.len()
    }

    pub fn share(&self, count: usize) -> f64 {
        count as f64 / self.explores.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn take<I: Iterator<Item = Req>>(it: I, n: usize) -> Vec<Req> {
        it.take(n).collect()
    }

    #[test]
    fn same_seed_same_stream() {
        assert_eq!(take(Session::new(11, 1, 1), 300), take(Session::new(11, 1, 1), 300));
        assert_eq!(take(cold(), 10), take(cold(), 10));
    }

    #[test]
    fn other_seed_other_stream() {
        assert_ne!(take(Session::new(11, 0, 0), 300), take(Session::new(12, 0, 0), 300));
        assert_ne!(take(Session::new(11, 0, 0), 300), take(Session::new(11, 1, 0), 300));
    }

    #[test]
    fn session_shape() {
        let reqs = take(Session::new(3, 0, 0), 400);
        assert_eq!(reqs[0], Req::explore(0, Explore::default()), "first look is the default");
        let mut stats = StreamStats::new(1);
        for r in &reqs {
            stats.observe(r);
        }
        // Repeats sit near their configured share; everything else is new.
        let repeats = stats.share(stats.exact_repeats);
        assert!((0.3..0.5).contains(&repeats), "repeat share {repeats}");
        assert!(stats.distinct() >= 200, "{} distinct", stats.distinct());
        assert!(stats.shared_cfs_refinements > 0);
    }

    #[test]
    fn long_sessions_keep_their_mix() {
        // Far more requests than a run sends per client: the grid must not
        // run out, or the session would decay into repeats.
        let mut stats = StreamStats::new(1);
        for r in take(Session::new(9, 0, 0), 4000) {
            stats.observe(&r);
        }
        let repeats = stats.share(stats.exact_repeats);
        assert!((0.35..0.45).contains(&repeats), "repeat share {repeats}");
    }

    #[test]
    fn stats_track_generations() {
        let mut stats = StreamStats::new(1);
        for r in take(cold(), 6) {
            stats.observe(&r);
        }
        // Every explore follows a reload: nothing repeats or shares.
        assert_eq!((stats.explores, stats.reloads), (3, 3));
        assert_eq!((stats.exact_repeats, stats.shared_cfs_refinements), (0, 0));
        let mut stats = StreamStats::new(1);
        stats.prime(&Req::explore(0, Explore::default()));
        stats.observe(&Req::explore(0, Explore::default()));
        stats.observe(&Req::explore(0, Explore { k: Some(3), ..Explore::default() }));
        assert_eq!((stats.exact_repeats, stats.shared_cfs_refinements), (1, 1));
    }

    #[test]
    fn bodies_are_canonical_json() {
        assert_eq!(Explore::default().body(), "{}");
        let e = Explore {
            k: Some(5),
            interestingness: Some("kurtosis"),
            min_support: Some("0.4"),
            cfs_filter: Some("type:CEO"),
            measure_filter: Some("netWorth"),
        };
        let body = e.body();
        spade_core::json::parse(&body).expect("valid JSON");
        assert_eq!(
            body,
            r#"{"k":5,"interestingness":"kurtosis","min_support":0.4,"cfs_filter":["type:CEO"],"measure_filter":["netWorth"]}"#
        );
    }
}
