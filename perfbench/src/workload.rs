//! The served workloads and their seeded generator.
//!
//! Everything a run submits is drawn here, with only `rand` and the
//! public `Point`, `PowerModel` and `ChurnEvent` types, so a change to
//! the program can never change the inputs it is compared on. Each
//! workload has one fixed station layout; `--seed` draws the member
//! pools, the bids and the event sequence, so runs of different seeds
//! serve the same network and differ only in their traffic. Bids are
//! calibrated against the built tree: a member's bid is a seeded factor
//! times its root-path cost, which is its stand-alone Shapley share and
//! the most it can ever be charged.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use wmcs_geom::{ChurnEvent, Point, PowerModel};
use wmcs_wireless::{
    Backend, GroupMechanism, SubstrateBuilder, TreeKind, UniversalTree, WirelessNetwork, NO_STATION,
};

/// Which public front door a workload is served through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Door {
    /// `StreamService::drive` with one producer and one epoch worker.
    Stream {
        /// Count watermark that seals an epoch.
        watermark: usize,
        /// Bounded per-group queue capacity.
        capacity: usize,
    },
    /// `MulticastService::step` with one worker thread; each step
    /// addresses `groups_per_step` rotating groups.
    Steps {
        /// Groups addressed by one step.
        groups_per_step: usize,
        /// Steps per drive.
        steps_per_drive: usize,
    },
}

/// The shape of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Workload name, as passed to `--workload`.
    pub name: &'static str,
    /// Stations, the source included.
    pub stations: usize,
    /// Concurrent groups (mechanisms alternate, Shapley first).
    pub groups: usize,
    /// Member pool per group.
    pub members: usize,
    /// Bid factor range, times the member's root-path cost.
    pub bid: (f64, f64),
    /// The front door.
    pub door: Door,
    /// Stream: events per group per drive. Steps: events per addressed
    /// group per step (and per warm-up batch).
    pub batch: usize,
    /// Nominal wall seconds of one drive on the reference host; a run
    /// makes `ceil(seconds / drive_seconds)` drives, at least
    /// [`MIN_DRIVES`], so the work is fixed by the arguments alone.
    pub drive_seconds: f64,
    /// Set-ups per untraced run (the median is reported).
    pub setups: usize,
    /// Health guard: the run must evict members.
    pub needs_evictions: bool,
}

/// Fewest drives a run makes, so that its median rate has five drives
/// behind it however short `--seconds` is.
pub const MIN_DRIVES: usize = 5;

/// `served_stream` and `crowded_steps`.
pub fn catalog() -> Vec<Spec> {
    vec![
        Spec {
            name: "served_stream",
            stations: 100_000,
            groups: 64,
            members: 32,
            bid: (0.5, 1.5),
            door: Door::Stream {
                watermark: 64,
                capacity: 128,
            },
            batch: 128,
            drive_seconds: 3.0,
            setups: 3,
            needs_evictions: false,
        },
        Spec {
            name: "crowded_steps",
            stations: 2048,
            groups: 16,
            members: 512,
            bid: (0.3, 1.0),
            door: Door::Steps {
                groups_per_step: 4,
                steps_per_drive: 64,
            },
            batch: 16,
            drive_seconds: 0.4,
            setups: 9,
            needs_evictions: true,
        },
    ]
}

impl Spec {
    /// Drives a run of `seconds` makes.
    pub fn drives(&self, seconds: f64) -> usize {
        // Saturating float-to-count conversion; NaN and negatives give 0.
        let wanted = (seconds / self.drive_seconds).ceil() as usize;
        wanted.max(MIN_DRIVES)
    }

    /// The mechanism group `g` is priced with.
    pub fn mechanism(&self, g: usize) -> GroupMechanism {
        GroupMechanism::alternating(g)
    }
}

/// The workload's fixed layout: uniform stations at constant density
/// (side `√n · 10`).
pub fn stations(spec: &Spec) -> Vec<Point> {
    let mut rng = SmallRng::seed_from_u64(0x5745_4154 ^ spec.stations as u64);
    let side = (spec.stations as f64).sqrt() * 10.0;
    (0..spec.stations)
        .map(|_| Point::xy(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect()
}

/// Build the shared substrate: a lazy free-space network and its
/// shortest-path tree, on the backend `Backend::Auto` picks.
pub fn build(points: Vec<Point>) -> UniversalTree {
    let net = WirelessNetwork::euclidean_lazy(points, PowerModel::free_space(), 0);
    SubstrateBuilder::from_owned(net)
        .tree(TreeKind::Spt)
        .backend(Backend::Auto)
        .build_universal()
}

/// Each player's root-path cost in the built tree — its stand-alone
/// Shapley share.
pub fn standalone_costs(ut: &UniversalTree) -> Vec<f64> {
    let sub = ut.substrate();
    let net = ut.network();
    let mut path = vec![0.0; net.n_stations()];
    for v in sub.bfs_order() {
        let v = v.index();
        let p = sub.parent_of(v);
        if p != NO_STATION {
            path[v] = path[p] + sub.parent_cost(v);
        }
    }
    (0..net.n_players())
        .map(|p| path[net.station_of_player(p)])
        .collect()
}

/// The seeded event generator: per-group member pools, the membership
/// ledger (joined and not left) and fresh bids.
#[derive(Debug, Clone)]
pub struct Generator {
    rng: SmallRng,
    /// Member pool per group, in draw order.
    pools: Vec<Vec<usize>>,
    /// Ledger: `present[g][i]` for pool member `i` of group `g`.
    present: Vec<Vec<bool>>,
    standalone: Vec<f64>,
    bid: (f64, f64),
}

impl Generator {
    /// Draw every group's pool of distinct players.
    pub fn new(spec: &Spec, seed: u64, standalone: Vec<f64>) -> Self {
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x4556_454e_5453);
        let players = standalone.len();
        let take = spec.members.min(players);
        let mut deck: Vec<usize> = (0..players).collect();
        let pools = (0..spec.groups)
            .map(|_| {
                // Partial Fisher–Yates: the first `take` cards are a
                // uniform sample without replacement.
                for i in 0..take {
                    let j = rng.gen_range(i..players);
                    deck.swap(i, j);
                }
                deck[..take].to_vec()
            })
            .collect::<Vec<_>>();
        let present = pools.iter().map(|p| vec![false; p.len()]).collect();
        Self {
            rng,
            pools,
            present,
            standalone,
            bid: spec.bid,
        }
    }

    fn fresh_bid(&mut self, player: usize) -> f64 {
        let (lo, hi) = self.bid;
        let factor = if hi > lo {
            self.rng.gen_range(lo..hi)
        } else {
            lo
        };
        factor * self.standalone[player]
    }

    /// Warm-up: every member of every group joins once, in pool order.
    pub fn warmup(&mut self) -> Vec<Vec<ChurnEvent>> {
        (0..self.pools.len())
            .map(|g| {
                (0..self.pools[g].len())
                    .map(|i| {
                        self.present[g][i] = true;
                        let player = self.pools[g][i];
                        let utility = self.fresh_bid(player);
                        ChurnEvent::Join { player, utility }
                    })
                    .collect()
            })
            .collect()
    }

    /// The next event of group `g`: a uniformly drawn member joins if
    /// absent; if present it re-joins with a fresh bid (40%), rebids
    /// (40%) or leaves (20%). Fresh-bid joins bring evicted members
    /// back, so the served fraction stays flat over a run.
    pub fn next_event(&mut self, g: usize) -> ChurnEvent {
        let i = self.rng.gen_range(0..self.pools[g].len());
        let player = self.pools[g][i];
        if !self.present[g][i] {
            self.present[g][i] = true;
            let utility = self.fresh_bid(player);
            return ChurnEvent::Join { player, utility };
        }
        let roll: f64 = self.rng.gen_range(0.0..1.0);
        if roll < 0.4 {
            let utility = self.fresh_bid(player);
            ChurnEvent::Join { player, utility }
        } else if roll < 0.8 {
            let utility = self.fresh_bid(player);
            ChurnEvent::Rebid { player, utility }
        } else {
            self.present[g][i] = false;
            ChurnEvent::Leave { player }
        }
    }

    /// `count` events for group `g`.
    pub fn group_events(&mut self, g: usize, count: usize) -> Vec<ChurnEvent> {
        (0..count).map(|_| self.next_event(g)).collect()
    }

    /// Merge per-group sequences into one submission order: a uniform
    /// shuffle of the group labels, each group's own order kept.
    pub fn interleave(&mut self, per_group: Vec<Vec<ChurnEvent>>) -> Vec<(usize, ChurnEvent)> {
        let mut labels: Vec<usize> = per_group
            .iter()
            .enumerate()
            .flat_map(|(g, evs)| std::iter::repeat_n(g, evs.len()))
            .collect();
        for i in (1..labels.len()).rev() {
            let j = self.rng.gen_range(0..=i);
            labels.swap(i, j);
        }
        let mut cursors = vec![0usize; per_group.len()];
        labels
            .into_iter()
            .map(|g| {
                let ev = per_group[g][cursors[g]];
                cursors[g] += 1;
                (g, ev)
            })
            .collect()
    }

    /// One stream drive: `batch` events per group, interleaved.
    pub fn stream_drive(&mut self, batch: usize) -> Vec<(usize, ChurnEvent)> {
        let per_group = (0..self.pools.len())
            .map(|g| self.group_events(g, batch))
            .collect();
        self.interleave(per_group)
    }

    /// One step segment: `steps` steps, step `s` addressing the
    /// `per_step` groups of rotation slot `first_step + s`, `batch`
    /// events each.
    pub fn step_segment(
        &mut self,
        first_step: usize,
        steps: usize,
        per_step: usize,
        batch: usize,
    ) -> Vec<Vec<(usize, Vec<ChurnEvent>)>> {
        let groups = self.pools.len();
        let slots = groups.div_ceil(per_step).max(1);
        (first_step..first_step + steps)
            .map(|s| {
                let lo = (s % slots) * per_step;
                (lo..(lo + per_step).min(groups))
                    .map(|g| (g, self.group_events(g, batch)))
                    .collect()
            })
            .collect()
    }
}
