//! `setup_s`: set-up timings spread over a run.
//!
//! A set-up is a fraction of a millisecond, and a shared machine has
//! slow spells lasting from a second to minutes, so a burst of timings
//! taken together can all be slow. The run times every set-up item once
//! per round, [`ROUNDS`] rounds in all: [`EARLY`] before the workload
//! starts, the rest due at even steps over the measuring window and
//! taken between units of work (campaigns or passes), and any still
//! owed when the window closes. Each round first runs one untimed
//! set-up, so every timed one starts warm. The number of timings never
//! depends on how fast the workload is, and the reported value is
//! [`BestOf::value`]: the median over the items of each item's fastest
//! round.

use std::time::Instant;

use crate::stats::BestOf;

/// Rounds per run.
pub const ROUNDS: usize = 12;
/// Rounds taken before the first unit of work.
const EARLY: usize = 3;

/// Times one item's set-up, in seconds.
type TimeItem<'a> = Box<dyn FnMut(usize) -> std::io::Result<f64> + 'a>;

/// The set-up timings of one run.
pub struct Setup<'a> {
    best: BestOf,
    rounds: usize,
    time: TimeItem<'a>,
    error: Option<std::io::Error>,
    started: Instant,
    window: f64,
}

impl<'a> Setup<'a> {
    /// Runs the early rounds of timing `items` items through `time`; the
    /// others fall due over the next `window` seconds.
    pub fn start(
        items: usize,
        window: f64,
        time: impl FnMut(usize) -> std::io::Result<f64> + 'a,
    ) -> Setup<'a> {
        let mut s = Setup {
            best: BestOf::new(items),
            rounds: 0,
            time: Box::new(time),
            error: None,
            started: Instant::now(),
            window,
        };
        for _ in 0..EARLY {
            s.round();
        }
        s
    }

    fn round(&mut self) {
        if self.error.is_some() {
            return;
        }
        if let Err(e) = (self.time)(0) {
            self.error = Some(e);
            return;
        }
        for item in 0..self.best.items() {
            match (self.time)(item) {
                Ok(secs) => self.best.record(item, secs),
                Err(e) => {
                    self.error = Some(e);
                    return;
                }
            }
        }
        self.rounds += 1;
    }

    /// Seconds into the window at which round `k` (0-based) falls due.
    fn due(&self, k: usize) -> f64 {
        let k = k.saturating_sub(EARLY) + 1;
        self.window * k as f64 / (ROUNDS - EARLY) as f64
    }

    /// One round, if one is due.
    pub fn between(&mut self) {
        if self.rounds < ROUNDS && self.started.elapsed().as_secs_f64() >= self.due(self.rounds) {
            self.round();
        }
    }

    /// Takes the rounds left and returns the timings, or the first error.
    pub fn finish(mut self) -> std::io::Result<BestOf> {
        while self.rounds < ROUNDS && self.error.is_none() {
            self.round();
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(self.best),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_are_fixed_whatever_the_work_between() {
        for (window, units) in [(0.0, 0), (0.0, 40), (3600.0, 40)] {
            let mut calls = 0;
            let mut s = Setup::start(4, window, |item| {
                calls += 1;
                Ok(item as f64 + 1.0)
            });
            for _ in 0..units {
                s.between();
            }
            let best = s.finish().unwrap();
            // Each round times 4 items after one warm-up call.
            assert_eq!(calls, ROUNDS * 5);
            assert_eq!(best.repeats(), ROUNDS * 4);
            assert_eq!(best.value(), 2.5);
        }
    }

    #[test]
    fn rounds_fall_due_evenly_over_the_window() {
        let s = Setup::start(1, 90.0, |_| Ok(1.0));
        assert_eq!(s.rounds, EARLY);
        assert_eq!(s.due(EARLY), 90.0 / (ROUNDS - EARLY) as f64);
        assert_eq!(s.due(ROUNDS - 1), 90.0);
    }

    #[test]
    fn the_first_error_stops_the_rounds() {
        let mut n = 0;
        let s = Setup::start(3, 0.0, |_| {
            n += 1;
            if n == 5 {
                Err(std::io::Error::other("refused"))
            } else {
                Ok(1.0)
            }
        });
        assert_eq!(s.finish().unwrap_err().to_string(), "refused");
    }
}
