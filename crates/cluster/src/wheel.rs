//! A hashed timer wheel for the reactor runtime.
//!
//! Every reactor worker owns one wheel. Timers armed by the actors it
//! drives land in a slot hashed from their deadline tick; one `advance`
//! call per loop iteration fires everything due, in exact deadline order.
//! This replaces the per-thread `BinaryHeap` + exact `recv_timeout` sleep
//! of the thread-per-actor loop: with hundreds of tasks per worker the
//! wheel keeps insert/cancel O(1) for the short protocol timers that
//! dominate (transaction timeouts, fabric horizons), while deadlines past
//! the wheel's horizon (e.g. the 5 s client resubmit backstop) overflow
//! into a heap that is only consulted when something in it comes due.
//!
//! Entries live in a slab, so a [`TimerId`] is a stable, generation-checked
//! handle: cancelling a fired, reused or already-cancelled timer is a safe
//! no-op, never a misfire of an unrelated entry.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use planet_sim::SimTime;

/// Default number of wheel slots (one rotation = `slots * tick`).
pub const DEFAULT_SLOTS: usize = 256;

/// Default tick width in microseconds. With 256 slots the horizon is
/// ~262 ms: every protocol timer lands in the wheel, client resubmit
/// backstops overflow to the heap.
pub const DEFAULT_TICK_US: u64 = 1024;

/// A stable handle to an armed timer, valid until the timer fires or is
/// cancelled. Generation-checked: a stale id never touches a reused slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerId {
    idx: u32,
    gen: u32,
}

struct Entry<T> {
    gen: u32,
    at: SimTime,
    seq: u64,
    /// `None` once fired or cancelled; the slab index is recycled when the
    /// containing slot (or the overflow heap) next sees the entry.
    item: Option<T>,
}

/// The hashed wheel. `T` is the payload delivered on expiry.
pub struct TimerWheel<T> {
    entries: Vec<Entry<T>>,
    free: Vec<u32>,
    slots: Vec<Vec<u32>>,
    /// Deadlines at least one rotation out, keyed `(due_us, seq, idx)`.
    overflow: BinaryHeap<Reverse<(u64, u64, u32)>>,
    /// The first tick the next `advance` scans: the tick of the last
    /// `advance` (it may still hold entries due later in that tick).
    cursor: u64,
    tick_us: u64,
    seq: u64,
    live: usize,
    /// Scratch for `advance`: reused so steady-state firing allocates
    /// nothing.
    due: Vec<(SimTime, u64, u32)>,
}

impl<T> TimerWheel<T> {
    /// A wheel with `slots` slots of `tick_us` microseconds each.
    pub fn new(slots: usize, tick_us: u64) -> Self {
        assert!(slots > 0 && tick_us > 0, "wheel geometry must be positive");
        TimerWheel {
            entries: Vec::new(),
            free: Vec::new(),
            slots: (0..slots).map(|_| Vec::new()).collect(),
            overflow: BinaryHeap::new(),
            cursor: 0,
            tick_us,
            seq: 0,
            live: 0,
            due: Vec::new(),
        }
    }

    /// Armed timers currently pending.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no timer is pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn tick_of(&self, at: SimTime) -> u64 {
        at.as_micros() / self.tick_us
    }

    /// Arm a timer due at `at`. Returns a handle usable with
    /// [`cancel`](Self::cancel) until the timer fires.
    pub fn insert(&mut self, at: SimTime, item: T) -> TimerId {
        let seq = self.seq;
        self.seq += 1;
        let idx = match self.free.pop() {
            Some(idx) => {
                let e = &mut self.entries[idx as usize];
                e.at = at;
                e.seq = seq;
                e.item = Some(item);
                idx
            }
            None => {
                let idx = self.entries.len() as u32;
                self.entries.push(Entry {
                    gen: 0,
                    at,
                    seq,
                    item: Some(item),
                });
                idx
            }
        };
        self.live += 1;
        let tick = self.tick_of(at);
        let n = self.slots.len() as u64;
        if tick < self.cursor + n {
            // Already-due deadlines park in the cursor slot so the next
            // `advance` sees them immediately.
            let slot = (tick.max(self.cursor) % n) as usize;
            self.slots[slot].push(idx);
        } else {
            self.overflow.push(Reverse((at.as_micros(), seq, idx)));
        }
        TimerId {
            idx,
            gen: self.entries[idx as usize].gen,
        }
    }

    /// Cancel an armed timer. Returns `true` if it was still pending (and
    /// is now guaranteed not to fire); stale or repeated cancels are no-ops.
    pub fn cancel(&mut self, id: TimerId) -> bool {
        match self.entries.get_mut(id.idx as usize) {
            Some(e) if e.gen == id.gen && e.item.is_some() => {
                e.item = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Retire a slab entry whose slot (or heap) membership has been
    /// dropped.
    fn retire(&mut self, idx: u32) {
        let e = &mut self.entries[idx as usize];
        e.gen = e.gen.wrapping_add(1);
        self.free.push(idx);
    }

    /// Fire every timer due at or before `now`, in exact `(deadline, arm
    /// order)` order, invoking `f(deadline, item)` for each.
    pub fn advance(&mut self, now: SimTime, mut f: impl FnMut(SimTime, T)) {
        let target = self.tick_of(now);
        let n = self.slots.len() as u64;
        let mut due = std::mem::take(&mut self.due);
        if target >= self.cursor {
            // A long sleep can move the cursor past a full rotation; each
            // slot only needs one scan.
            let steps = ((target - self.cursor) + 1).min(n);
            for s in 0..steps {
                let slot = ((self.cursor + s) % n) as usize;
                let mut kept = 0;
                for k in 0..self.slots[slot].len() {
                    let idx = self.slots[slot][k];
                    let e = &self.entries[idx as usize];
                    if e.item.is_none() {
                        // Cancelled: recycle, drop from the slot.
                        self.retire(idx);
                    } else if e.at <= now {
                        due.push((e.at, e.seq, idx));
                    } else {
                        // A later rotation's entry: keep it in place.
                        self.slots[slot][kept] = idx;
                        kept += 1;
                    }
                }
                self.slots[slot].truncate(kept);
            }
            // Stay on the current tick, not past it: its slot may still
            // hold an entry due later in this tick (armed less than a tick
            // ahead), which would otherwise wait a full rotation.
            self.cursor = target;
        }
        while let Some(&Reverse((at_us, seq, idx))) = self.overflow.peek() {
            if at_us > now.as_micros() {
                break;
            }
            self.overflow.pop();
            let e = &self.entries[idx as usize];
            if e.item.is_none() || e.seq != seq {
                self.retire(idx);
            } else {
                due.push((SimTime::from_micros(at_us), seq, idx));
            }
        }
        due.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        for (at, _, idx) in due.drain(..) {
            let item = self.entries[idx as usize].item.take();
            self.retire(idx);
            self.live -= 1;
            if let Some(item) = item {
                f(at, item);
            }
        }
        self.due = due;
    }

    /// The earliest pending deadline, if any — what bounds a worker's park.
    pub fn next_deadline(&self) -> Option<SimTime> {
        let mut min: Option<SimTime> = None;
        for e in &self.entries {
            if e.item.is_some() && min.is_none_or(|m| e.at < m) {
                min = Some(e.at);
            }
        }
        min
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(v: u64) -> SimTime {
        SimTime::from_micros(v)
    }

    #[test]
    fn fires_in_exact_deadline_order() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, 100);
        // Insert out of order, spanning multiple slots and a same-deadline
        // tie (broken by arm order).
        wheel.insert(us(750), 3);
        wheel.insert(us(120), 0);
        wheel.insert(us(500), 1);
        wheel.insert(us(500), 2);
        let mut fired = Vec::new();
        wheel.advance(us(1000), |at, v| fired.push((at.as_micros(), v)));
        assert_eq!(fired, vec![(120, 0), (500, 1), (500, 2), (750, 3)]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn partial_advance_leaves_future_timers_armed() {
        let mut wheel: TimerWheel<&str> = TimerWheel::new(4, 100);
        wheel.insert(us(150), "early");
        wheel.insert(us(350), "late");
        let mut fired = Vec::new();
        wheel.advance(us(200), |_, v| fired.push(v));
        assert_eq!(fired, vec!["early"]);
        assert_eq!(wheel.len(), 1);
        assert_eq!(wheel.next_deadline(), Some(us(350)));
        wheel.advance(us(400), |_, v| fired.push(v));
        assert_eq!(fired, vec!["early", "late"]);
    }

    #[test]
    fn same_slot_different_rotations_fire_at_their_own_deadlines() {
        // Slot hash collision: 100us and 500us share slot 1 on a 4x100us
        // wheel. The first rotation must fire only the first.
        let mut wheel: TimerWheel<u32> = TimerWheel::new(4, 100);
        wheel.insert(us(100), 1);
        wheel.insert(us(500), 5);
        let mut fired = Vec::new();
        wheel.advance(us(250), |_, v| fired.push(v));
        assert_eq!(fired, vec![1]);
        wheel.advance(us(600), |_, v| fired.push(v));
        assert_eq!(fired, vec![1, 5]);
    }

    #[test]
    fn cancellation_prevents_fire_and_recycles_the_slab() {
        let mut wheel: TimerWheel<u32> = TimerWheel::new(8, 100);
        let keep = wheel.insert(us(300), 1);
        let kill = wheel.insert(us(200), 2);
        assert!(wheel.cancel(kill), "pending timer cancels");
        assert!(!wheel.cancel(kill), "second cancel is a no-op");
        assert_eq!(wheel.len(), 1);
        let mut fired = Vec::new();
        wheel.advance(us(1000), |_, v| fired.push(v));
        assert_eq!(fired, vec![1], "cancelled timer never fires");
        assert!(!wheel.cancel(keep), "fired timer's id is stale");
        // The freed slab entry is reused with a bumped generation: the old
        // id must not cancel the new timer.
        let renew = wheel.insert(us(400), 3);
        assert!(!wheel.cancel(kill), "stale id cannot touch a reused entry");
        assert!(wheel.cancel(renew));
    }

    #[test]
    fn overflow_deadlines_past_the_horizon_still_fire() {
        // 4 slots x 100us = 400us horizon; 5ms lands in the overflow heap.
        let mut wheel: TimerWheel<&str> = TimerWheel::new(4, 100);
        wheel.insert(us(5_000), "backstop");
        wheel.insert(us(50), "quick");
        assert_eq!(wheel.next_deadline(), Some(us(50)));
        let mut fired = Vec::new();
        wheel.advance(us(300), |_, v| fired.push(v));
        assert_eq!(fired, vec!["quick"]);
        assert_eq!(wheel.next_deadline(), Some(us(5_000)));
        wheel.advance(us(6_000), |_, v| fired.push(v));
        assert_eq!(fired, vec!["quick", "backstop"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn sub_tick_timer_fires_within_its_tick() {
        // Armed half a tick ahead, inside the tick the cursor has just
        // scanned: it must fire as soon as its deadline passes, not one
        // rotation (4 x 100us) later.
        let mut wheel: TimerWheel<&str> = TimerWheel::new(4, 100);
        let mut fired = Vec::new();
        wheel.advance(us(1_010), |_, v| fired.push(v));
        wheel.insert(us(1_060), "half-tick");
        wheel.advance(us(1_040), |_, v| fired.push(v));
        assert!(fired.is_empty(), "not yet due");
        wheel.advance(us(1_061), |_, v| fired.push(v));
        assert_eq!(fired, vec!["half-tick"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn re_arm_after_fire_keeps_exact_ordering() {
        // The closed-loop client pattern: every fire re-arms the next
        // deadline. Ordering must hold across generations of the same slab
        // entry.
        let mut wheel: TimerWheel<u64> = TimerWheel::new(8, 100);
        wheel.insert(us(100), 0);
        let mut fired = Vec::new();
        for round in 1..=5u64 {
            let mut due = Vec::new();
            wheel.advance(us(round * 100), |at, v| due.push((at, v)));
            for (at, v) in due {
                fired.push(v);
                wheel.insert(at + planet_sim::SimDuration::from_micros(100), v + 1);
            }
        }
        assert_eq!(fired, vec![0, 1, 2, 3, 4]);
        assert_eq!(wheel.len(), 1, "the re-armed tail stays pending");
    }
}
