//! Bounded duplicate suppression over sequence numbers.
//!
//! A Spines daemon must recognise a flooded message it has already
//! forwarded, and a reliable frame that a neighbour retransmitted because
//! its ack was lost. Both carry numbers that their sender assigns in
//! increasing order: a per-`(source, port)` sequence number and a
//! per-daemon frame id. A [`SeqWindow`] remembers, for one sender, exactly
//! which numbers it has seen for as long as a copy of them can still be in
//! flight, and then forgets them by raising its *floor*: every number below
//! the floor counts as seen.
//!
//! * **Horizon** ([`Limits::horizon`]). The lowest word of the window (64
//!   consecutive numbers) is dropped once no number in it has been seen for
//!   a whole horizon, and the floor rises past the highest number it held.
//!   Every number below that one was assigned earlier, so once the horizon
//!   covers the time a copy can be retransmitted, nothing still in flight
//!   falls below the floor.
//! * **Span** ([`Limits::span`]). No number at or above `floor + span` is
//!   recorded. Reaching one means raising the floor, which is allowed only
//!   past words that are themselves a horizon old; otherwise the number is
//!   refused as [`Sight::Ahead`]. A forged far-ahead number therefore
//!   cannot push the floor past traffic that is still in flight, and a
//!   window never holds more than `span / 64` words.
//!
//! Only words with a bit set are stored, so a sender whose numbers reach
//! this daemon sparsely (a frame id sequence shared by several links) costs
//! one word per 64 numbers it advanced, not one per number.

use spire_sim::{Span, Time};
use std::collections::VecDeque;

/// How long numbers are remembered and how far ahead of the floor they may
/// run (see the module documentation).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Limits {
    /// A word is kept until nothing in it has been seen for this long.
    pub horizon: Span,
    /// Numbers at or above `floor + span` are refused unless the floor can
    /// rise past only expired words. At least 1.
    pub span: u64,
}

/// What [`SeqWindow::observe`] made of a number.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Sight {
    /// First sight: the number is now recorded.
    New,
    /// Seen before, or below the floor.
    Seen,
    /// At or beyond `floor + span` while numbers below it may still be in
    /// flight: refused and not recorded.
    Ahead,
}

/// One sender's seen numbers: everything below `floor`, plus the set bits
/// of `words` (see the module documentation).
#[derive(Debug, Default)]
pub(crate) struct SeqWindow {
    floor: u64,
    /// Ascending by `index`; a word with no bit set is never stored.
    words: VecDeque<Word>,
}

#[derive(Clone, Copy, Debug)]
struct Word {
    /// Numbers `64 * index ..= 64 * index + 63`.
    index: u64,
    bits: u64,
    /// When a bit was last set.
    touched: Time,
}

impl Word {
    fn expired(&self, now: Time, horizon: Span) -> bool {
        self.touched + horizon <= now
    }
}

impl SeqWindow {
    /// Records `seq` as seen at `now` and reports whether it was new.
    pub fn observe(&mut self, seq: u64, now: Time, limits: Limits) -> Sight {
        if seq < self.floor {
            return Sight::Seen;
        }
        if seq - self.floor >= limits.span {
            let floor = seq - (limits.span - 1);
            let passes_in_flight = self
                .words
                .iter()
                .take_while(|w| w.index * 64 < floor)
                .any(|w| !w.expired(now, limits.horizon));
            if passes_in_flight {
                return Sight::Ahead;
            }
            while self.words.front().is_some_and(|w| w.index < floor / 64) {
                self.words.pop_front();
            }
            self.floor = floor;
        }
        let index = seq / 64;
        let bit = 1u64 << (seq % 64);
        // Numbers mostly arrive in order, so the last word is the usual hit.
        let slot = match self.words.back() {
            Some(last) if last.index < index => Err(self.words.len()),
            Some(last) if last.index == index => Ok(self.words.len() - 1),
            _ => self.words.binary_search_by_key(&index, |w| w.index),
        };
        match slot {
            Ok(i) => {
                let word = &mut self.words[i];
                if word.bits & bit != 0 {
                    return Sight::Seen;
                }
                word.bits |= bit;
                word.touched = now;
            }
            Err(i) => self.words.insert(
                i,
                Word {
                    index,
                    bits: bit,
                    touched: now,
                },
            ),
        }
        Sight::New
    }

    /// Drops the lowest words while nothing in them has been seen for a
    /// whole `horizon`, raising the floor past the highest number each held.
    pub fn expire(&mut self, now: Time, horizon: Span) {
        while let Some(w) = self.words.front().copied() {
            if !w.expired(now, horizon) {
                break;
            }
            let highest = w.index * 64 + 63 - w.bits.leading_zeros() as u64;
            self.floor = self.floor.max(highest + 1);
            self.words.pop_front();
        }
    }

    /// True when no number above the floor is recorded.
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// Bytes this window keeps allocated, itself included.
    pub fn retained_bytes(&self) -> usize {
        std::mem::size_of::<SeqWindow>() + self.words.capacity() * std::mem::size_of::<Word>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashSet;

    const LIMITS: Limits = Limits {
        horizon: Span(1_000),
        span: 1 << 20,
    };

    fn at(us: u64) -> Time {
        Time(us)
    }

    #[test]
    fn duplicate_is_seen() {
        let mut w = SeqWindow::default();
        assert_eq!(w.observe(5, at(0), LIMITS), Sight::New);
        assert_eq!(w.observe(5, at(1), LIMITS), Sight::Seen);
        assert_eq!(w.observe(6, at(1), LIMITS), Sight::New);
    }

    #[test]
    fn reorder_inside_the_span_is_exact() {
        let mut w = SeqWindow::default();
        for seq in [300, 10, 200, 7, 9, 8, 130, 64, 63] {
            assert_eq!(w.observe(seq, at(0), LIMITS), Sight::New, "seq {seq}");
        }
        for seq in [300, 10, 200, 7, 9, 8, 130, 64, 63] {
            assert_eq!(w.observe(seq, at(1), LIMITS), Sight::Seen, "seq {seq}");
        }
        for seq in [0, 11, 65, 199, 201, 299, 301] {
            assert_eq!(w.observe(seq, at(2), LIMITS), Sight::New, "seq {seq}");
        }
    }

    #[test]
    fn below_the_floor_counts_as_seen() {
        let mut w = SeqWindow::default();
        assert_eq!(w.observe(100, at(0), LIMITS), Sight::New);
        assert_eq!(w.observe(140, at(500), LIMITS), Sight::New);
        // Word 1 (64..=127) has been quiet for a horizon, word 2 has not.
        w.expire(at(1_000), LIMITS.horizon);
        assert_eq!(w.observe(50, at(1_000), LIMITS), Sight::Seen);
        assert_eq!(w.observe(100, at(1_000), LIMITS), Sight::Seen);
        // Above the highest number the expired word held: still exact.
        assert_eq!(w.observe(101, at(1_000), LIMITS), Sight::New);
        assert_eq!(w.observe(139, at(1_000), LIMITS), Sight::New);
        assert_eq!(w.observe(140, at(1_000), LIMITS), Sight::Seen);
    }

    #[test]
    fn late_sight_keeps_its_word_and_those_above() {
        let mut w = SeqWindow::default();
        assert_eq!(w.observe(1, at(0), LIMITS), Sight::New);
        assert_eq!(w.observe(70, at(0), LIMITS), Sight::New);
        // A retransmission of 2 arrives late and refreshes word 0.
        assert_eq!(w.observe(2, at(900), LIMITS), Sight::New);
        w.expire(at(1_000), LIMITS.horizon);
        assert_eq!(w.observe(3, at(1_000), LIMITS), Sight::New);
        assert_eq!(w.observe(70, at(1_000), LIMITS), Sight::Seen);
        w.expire(at(2_000), LIMITS.horizon);
        assert!(w.is_empty());
        // Below the highest number an expired word held: presumed seen.
        assert_eq!(w.observe(69, at(2_000), LIMITS), Sight::Seen);
        assert_eq!(w.observe(71, at(2_000), LIMITS), Sight::New);
    }

    #[test]
    fn first_sight_at_a_high_seq() {
        let high = 1u64 << 50;
        let mut w = SeqWindow::default();
        assert_eq!(w.observe(high, at(0), LIMITS), Sight::New);
        // Earlier numbers within the span may still be in flight: exact.
        assert_eq!(w.observe(high - 3, at(1), LIMITS), Sight::New);
        assert_eq!(w.observe(high - 3, at(1), LIMITS), Sight::Seen);
        assert_eq!(w.observe(high - LIMITS.span + 1, at(1), LIMITS), Sight::New);
        // A span below: below the floor.
        assert_eq!(w.observe(high - LIMITS.span, at(1), LIMITS), Sight::Seen);
        assert_eq!(w.observe(0, at(1), LIMITS), Sight::Seen);
        // Moving up would pass the in-flight number at the bottom.
        assert_eq!(w.observe(high + 1, at(1), LIMITS), Sight::Ahead);
        assert_eq!(w.observe(high - 2, at(1), LIMITS), Sight::New);
    }

    #[test]
    fn the_floor_follows_the_top_past_nothing_in_flight() {
        let mut w = SeqWindow::default();
        let base = 1u64 << 50;
        for seq in base..base + 200 {
            assert_eq!(w.observe(seq, at(0), LIMITS), Sight::New);
        }
        assert_eq!(w.observe(base + LIMITS.span, at(0), LIMITS), Sight::Ahead);
        assert_eq!(w.observe(base + 199, at(0), LIMITS), Sight::Seen);
        assert_eq!(w.observe(base - 1, at(0), LIMITS), Sight::New);
    }

    #[test]
    fn forged_far_ahead_seq_cannot_pass_in_flight_traffic() {
        let mut w = SeqWindow::default();
        for seq in (1..=100).filter(|s| s % 10 != 0) {
            assert_eq!(w.observe(seq, at(0), LIMITS), Sight::New);
        }
        let forged = 100 + 10 * LIMITS.span;
        assert_eq!(w.observe(forged, at(10), LIMITS), Sight::Ahead);
        assert_eq!(w.observe(u64::MAX, at(10), LIMITS), Sight::Ahead);
        // Nothing moved: in-flight numbers are still new, seen ones seen.
        assert_eq!(w.observe(forged, at(11), LIMITS), Sight::Ahead);
        for seq in [10, 50, 100, 101] {
            assert_eq!(w.observe(seq, at(20), LIMITS), Sight::New, "seq {seq}");
        }
        assert_eq!(w.observe(55, at(20), LIMITS), Sight::Seen);
        // Once the traffic below is a horizon old, the floor may move.
        assert_eq!(
            w.observe(forged, at(20 + LIMITS.horizon.0), LIMITS),
            Sight::New
        );
        assert_eq!(w.observe(101, at(2_000), LIMITS), Sight::Seen);
    }

    #[test]
    fn words_are_bounded_by_the_span() {
        let limits = Limits {
            horizon: Span(1_000),
            span: 64 * 8,
        };
        let mut w = SeqWindow::default();
        let mut refused = 0;
        for seq in (0..10_000).step_by(64) {
            if w.observe(seq, at(0), limits) == Sight::Ahead {
                refused += 1;
            }
        }
        assert!(w.words.len() <= 8, "{} words", w.words.len());
        assert!(refused > 0);
    }

    /// One message: the gap to the previous seq, the gap to the previous
    /// send, and the delays of each delivered copy.
    fn arb_stream() -> impl Strategy<Value = (u64, Vec<(u64, u64, Vec<u64>)>)> {
        (
            prop_oneof![Just(0u64), 0..1u64 << 40, Just(u64::MAX / 2)],
            proptest::collection::vec(
                (
                    1..70u64,
                    0..300u64,
                    proptest::collection::vec(0..LIMITS.horizon.0, 1..4),
                ),
                1..300,
            ),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// Against a set that remembers everything: while every copy of a
        /// number arrives within a horizon of its sending, and numbers are
        /// sent in increasing order, the window answers exactly as the set.
        #[test]
        fn matches_a_set_while_reordering_stays_inside_the_horizon(
            (base, stream) in arb_stream(),
            expire_every in 1..50usize,
        ) {
            let mut arrivals = Vec::new();
            let (mut seq, mut sent) = (base, 0u64);
            for (seq_gap, send_gap, delays) in stream {
                seq += seq_gap;
                sent += send_gap;
                for d in delays {
                    arrivals.push((sent + d, seq));
                }
            }
            arrivals.sort();
            let mut window = SeqWindow::default();
            let mut model = HashSet::new();
            for (i, (t, seq)) in arrivals.into_iter().enumerate() {
                if i % expire_every == 0 {
                    window.expire(at(t), LIMITS.horizon);
                }
                let expected = if model.insert(seq) { Sight::New } else { Sight::Seen };
                prop_assert_eq!(window.observe(seq, at(t), LIMITS), expected, "seq {} at {}", seq, t);
            }
        }
    }
}
