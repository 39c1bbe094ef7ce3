//! Output checks, the outcome digest and the workload health guards.
//!
//! The checker mirrors each group's session from the events alone
//! (total semantics: a `Join` of a member updates its bid, `Leave` and
//! `Rebid` of an absent player do nothing, Shapley evictions persist)
//! and the generator's ledger (joined and not left). Every epoch's
//! outcome is checked against that mirror; any failure ends the run.

use crate::drive::{DriveLog, Epoch};
use crate::workload::Spec;
use wmcs_game::MechanismOutcome;
use wmcs_geom::{ChurnEvent, BB_TOL, VP_TOL};
use wmcs_wireless::GroupMechanism;

/// FNV-1a over 64-bit words: the outcome digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

/// One group's mirrored state.
#[derive(Debug, Clone)]
struct Mirror {
    mechanism: GroupMechanism,
    /// Session members and their bids, ascending by player.
    session: Vec<(usize, f64)>,
    /// Ledger: players that joined and have not left, ascending.
    ledger: Vec<usize>,
    /// Epochs seen (warm-up included).
    epochs: usize,
    /// `(served members, ledger members)` after each timed epoch.
    timed: Vec<(u32, u32)>,
}

/// Insert `v` into the ascending `set` unless present.
fn insert_sorted(set: &mut Vec<usize>, v: usize) {
    if let Err(i) = set.binary_search(&v) {
        set.insert(i, v);
    }
}

/// Remove `v` from the ascending `set` if present.
fn remove_sorted(set: &mut Vec<usize>, v: usize) {
    if let Ok(i) = set.binary_search(&v) {
        set.remove(i);
    }
}

impl Mirror {
    fn absorb_events(&mut self, events: &[ChurnEvent]) {
        for ev in events {
            match *ev {
                ChurnEvent::Join { player, utility } => {
                    insert_sorted(&mut self.ledger, player);
                    match self.session.binary_search_by_key(&player, |m| m.0) {
                        Ok(i) => self.session[i].1 = utility,
                        Err(i) => self.session.insert(i, (player, utility)),
                    }
                }
                ChurnEvent::Leave { player } => {
                    remove_sorted(&mut self.ledger, player);
                    if let Ok(i) = self.session.binary_search_by_key(&player, |m| m.0) {
                        self.session.remove(i);
                    }
                }
                ChurnEvent::Rebid { player, utility } => {
                    if let Ok(i) = self.session.binary_search_by_key(&player, |m| m.0) {
                        self.session[i].1 = utility;
                    }
                }
            }
        }
    }
}

/// Facts the health guards read after a run.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Health {
    /// Served fraction after each group's last epoch.
    pub served_fraction: f64,
    /// Served fraction over the first tenth of each group's timed epochs.
    pub first_tenth: f64,
    /// Served fraction over the last tenth of each group's timed epochs.
    pub last_tenth: f64,
    /// Shapley members evicted during the timed phase.
    pub evictions: u64,
    /// `Busy` refusals in the timed phase.
    pub busy: u64,
}

/// Checks every epoch and accumulates the digest and served tallies.
#[derive(Debug, Clone)]
pub struct Checker {
    n_players: usize,
    groups: Vec<Mirror>,
    digest: Digest,
    /// Shapley members evicted in timed epochs.
    pub evictions: u64,
}

impl Checker {
    /// A checker for `spec`'s groups over `n_players` players.
    pub fn new(spec: &Spec, n_players: usize) -> Self {
        Self {
            n_players,
            groups: (0..spec.groups)
                .map(|g| Mirror {
                    mechanism: spec.mechanism(g),
                    session: Vec::new(),
                    ledger: Vec::new(),
                    epochs: 0,
                    timed: Vec::new(),
                })
                .collect(),
            digest: Digest::default(),
            evictions: 0,
        }
    }

    /// The digest of every outcome checked so far.
    pub fn digest(&self) -> u64 {
        self.digest.0
    }

    /// Check every epoch of `log`, in order.
    pub fn check_log(&mut self, log: &DriveLog, timed: bool) -> Result<(), String> {
        log.epochs
            .iter()
            .try_for_each(|e| self.check_epoch(e, timed))
    }

    /// Check one epoch's outcome against the mirrored session.
    pub fn check_epoch(&mut self, e: &Epoch, timed: bool) -> Result<(), String> {
        let n = self.n_players;
        let m = self
            .groups
            .get_mut(e.group)
            .ok_or_else(|| format!("outcome for unknown group {}", e.group))?;
        let at = format!("group {} epoch {}", e.group, m.epochs);
        m.absorb_events(&e.events);
        let out: &MechanismOutcome = &e.outcome;
        if out.shares.len() != n {
            return Err(format!("{at}: {} shares for {n} players", out.shares.len()));
        }
        if !out.served_cost.is_finite() || out.served_cost < 0.0 {
            return Err(format!(
                "{at}: served cost {} is not finite",
                out.served_cost
            ));
        }
        if out.receivers.windows(2).any(|w| w[0] >= w[1]) {
            return Err(format!("{at}: receivers are not strictly ascending"));
        }
        // Non-receivers are charged exactly nothing.
        let mut next = out.receivers.iter().copied().peekable();
        for (p, &share) in out.shares.iter().enumerate() {
            if next.peek() == Some(&p) {
                next.next();
            } else if share.to_bits() != 0 {
                return Err(format!("{at}: non-receiver {p} charged {share}"));
            }
        }
        if next.next().is_some() {
            return Err(format!("{at}: a receiver id is out of range"));
        }
        let mut revenue = 0.0;
        for &r in &out.receivers {
            let share = out.shares[r];
            revenue += share;
            match m.session.binary_search_by_key(&r, |s| s.0) {
                Ok(i) => {
                    let bid = m.session[i].1;
                    if !(share >= 0.0 && share <= bid + VP_TOL) {
                        return Err(format!(
                            "{at}: receiver {r} charged {share} against bid {bid} (VP)"
                        ));
                    }
                }
                Err(_) if m.mechanism == GroupMechanism::MarginalCost => {
                    if share.to_bits() != 0 {
                        return Err(format!("{at}: zero-bid relay {r} charged {share}"));
                    }
                }
                Err(_) => return Err(format!("{at}: receiver {r} is not a session member")),
            }
        }
        if m.mechanism == GroupMechanism::Shapley {
            let gap = (revenue - out.served_cost).abs() / out.served_cost.max(1.0);
            if gap > BB_TOL {
                return Err(format!(
                    "{at}: revenue {revenue} vs cost {} breaks budget balance",
                    out.served_cost
                ));
            }
            // Moulin–Shenker evictions persist: the session is the
            // receiver set from here on.
            let before = m.session.len();
            m.session
                .retain(|s| out.receivers.binary_search(&s.0).is_ok());
            if timed {
                self.evictions += (before - m.session.len()) as u64;
            }
        }
        let digest = &mut self.digest;
        digest.word(e.group as u64);
        digest.word(m.epochs as u64);
        digest.word(out.receivers.len() as u64);
        for &r in &out.receivers {
            digest.word(r as u64);
            digest.word(out.shares[r].to_bits());
        }
        digest.word(out.served_cost.to_bits());
        if timed {
            let served = m
                .ledger
                .iter()
                .filter(|p| out.receivers.binary_search(p).is_ok())
                .count();
            m.timed.push((
                u32::try_from(served).unwrap_or(u32::MAX),
                u32::try_from(m.ledger.len()).unwrap_or(u32::MAX),
            ));
        }
        m.epochs += 1;
        Ok(())
    }

    /// Served fractions: after each group's last timed epoch, and over
    /// the first and last tenth of each group's timed epochs.
    pub fn served(&self) -> (f64, f64, f64) {
        let ratio = |pairs: &mut dyn Iterator<Item = (u32, u32)>| {
            let (s, l) = pairs.fold((0u64, 0u64), |(s, l), (a, b)| {
                (s + u64::from(a), l + u64::from(b))
            });
            if l == 0 {
                0.0
            } else {
                s as f64 / l as f64
            }
        };
        let last = ratio(&mut self.groups.iter().filter_map(|m| m.timed.last().copied()));
        let tenth = |m: &Mirror| m.timed.len().div_ceil(10);
        let first_tenth = ratio(
            &mut self
                .groups
                .iter()
                .flat_map(|m| m.timed[..tenth(m)].iter().copied()),
        );
        let last_tenth = ratio(
            &mut self
                .groups
                .iter()
                .flat_map(|m| m.timed[m.timed.len() - tenth(m)..].iter().copied()),
        );
        (last, first_tenth, last_tenth)
    }
}

/// Health guard: least served fraction at the end of the run.
pub const MIN_SERVED: f64 = 0.5;

/// Health guard: largest gap between the served fractions of the first
/// and the last tenth of the timed phase.
pub const MAX_DRIFT: f64 = 0.05;

/// The health guards: a degenerate drive fails the run instead of
/// reporting a headline.
pub fn guards(spec: &Spec, h: &Health) -> Result<(), String> {
    if h.served_fraction < MIN_SERVED {
        return Err(format!(
            "health: served fraction {:.4} is below {MIN_SERVED}",
            h.served_fraction
        ));
    }
    if spec.needs_evictions && h.evictions == 0 {
        return Err("health: no member was evicted (every epoch took one drop round)".into());
    }
    // Only the stream door can refuse, and the stream workload sizes its
    // queues so that it never has to.
    if h.busy != 0 {
        return Err(format!("health: {} submissions were refused", h.busy));
    }
    if (h.first_tenth - h.last_tenth).abs() > MAX_DRIFT {
        return Err(format!(
            "health: served fraction drifted from {:.4} (first tenth) to {:.4} (last tenth)",
            h.first_tenth, h.last_tenth
        ));
    }
    Ok(())
}
