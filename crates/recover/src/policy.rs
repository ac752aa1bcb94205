//! Recovery policy and accounting.
//!
//! On a detected failure the engine rolls back to the newest *valid*
//! checkpoint (corrupt snapshots are rejected by checksum and skipped in
//! favor of the previous one) and replays, with bounded retries and
//! exponential backoff. When the retry budget is exhausted the engine
//! degrades gracefully to sequential execution from the last good barrier
//! instead of failing the whole computation.

/// Tunable recovery knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RecoveryPolicy {
    /// Write a checkpoint every `k` supersteps (0 disables checkpointing).
    pub checkpoint_every: usize,
    /// Keep at most this many snapshots in the store (0 = unbounded).
    pub keep_snapshots: usize,
    /// Rollback/replay attempts before degrading to sequential execution.
    pub max_retries: u32,
    /// Base of the exponential backoff, in milliseconds (retry `r` sleeps
    /// `base * 2^r` ms, capped by [`RecoveryPolicy::backoff_cap_ms`]).
    pub backoff_base_ms: u64,
    /// Upper bound on a single backoff sleep.
    pub backoff_cap_ms: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            checkpoint_every: 4,
            keep_snapshots: 3,
            max_retries: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 1000,
        }
    }
}

impl RecoveryPolicy {
    /// Backoff delay before retry number `retry` (0-based).
    pub fn backoff_ms(&self, retry: u32) -> u64 {
        let exp = self
            .backoff_base_ms
            .saturating_mul(1u64.checked_shl(retry).unwrap_or(u64::MAX));
        exp.min(self.backoff_cap_ms)
    }

    /// Whether the step index `next_step` (the step *about to start*) is a
    /// checkpoint boundary under this policy.
    pub fn is_checkpoint_step(&self, next_step: u64) -> bool {
        self.checkpoint_every > 0
            && next_step > 0
            && next_step.is_multiple_of(self.checkpoint_every as u64)
    }
}

/// Everything that happened on the recovery path of one run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// Snapshots written to the store.
    pub checkpoints_written: u64,
    /// Encoded bytes of those snapshots.
    pub checkpoint_bytes: u64,
    /// Rollbacks to an earlier barrier (including restarts from step 0 when
    /// no checkpoint existed).
    pub rollbacks: u64,
    /// Replay attempts consumed from the retry budget.
    pub retries: u64,
    /// Snapshots rejected during recovery because their checksum (or
    /// format) did not validate.
    pub corrupt_snapshots_rejected: u64,
    /// Faults the injector actually fired during the run.
    pub faults_injected: u64,
    /// Whether the run fell back to sequential graceful degradation after
    /// exhausting the retry budget.
    pub degraded: bool,
}

impl RecoveryStats {
    /// Fold another run's stats into this one (hetero runs sum both sides).
    pub fn accumulate(&mut self, other: &RecoveryStats) {
        self.checkpoints_written += other.checkpoints_written;
        self.checkpoint_bytes += other.checkpoint_bytes;
        self.rollbacks += other.rollbacks;
        self.retries += other.retries;
        self.corrupt_snapshots_rejected += other.corrupt_snapshots_rejected;
        self.faults_injected += other.faults_injected;
        self.degraded |= other.degraded;
    }

    /// One-line summary (appended to run summaries when anything happened).
    pub fn summary(&self) -> String {
        format!(
            "ckpts={} ({} B) rollbacks={} retries={} corrupt_rejected={} faults={}{}",
            self.checkpoints_written,
            self.checkpoint_bytes,
            self.rollbacks,
            self.retries,
            self.corrupt_snapshots_rejected,
            self.faults_injected,
            if self.degraded { " DEGRADED->seq" } else { "" },
        )
    }

    /// Whether any recovery-relevant event happened at all.
    pub fn any(&self) -> bool {
        *self != RecoveryStats::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_exponential_and_capped() {
        let p = RecoveryPolicy {
            backoff_base_ms: 10,
            backoff_cap_ms: 100,
            ..Default::default()
        };
        assert_eq!(p.backoff_ms(0), 10);
        assert_eq!(p.backoff_ms(1), 20);
        assert_eq!(p.backoff_ms(2), 40);
        assert_eq!(p.backoff_ms(4), 100); // capped
        assert_eq!(p.backoff_ms(63), 100);
        assert_eq!(p.backoff_ms(64), 100); // shift overflow saturates
    }

    #[test]
    fn checkpoint_boundaries() {
        let p = RecoveryPolicy {
            checkpoint_every: 3,
            ..Default::default()
        };
        assert!(!p.is_checkpoint_step(0));
        assert!(!p.is_checkpoint_step(2));
        assert!(p.is_checkpoint_step(3));
        assert!(p.is_checkpoint_step(6));
        let off = RecoveryPolicy {
            checkpoint_every: 0,
            ..Default::default()
        };
        assert!(!off.is_checkpoint_step(3));
    }

    #[test]
    fn stats_accumulate_and_summarize() {
        let mut a = RecoveryStats {
            checkpoints_written: 2,
            checkpoint_bytes: 100,
            rollbacks: 1,
            ..Default::default()
        };
        let b = RecoveryStats {
            retries: 3,
            degraded: true,
            ..Default::default()
        };
        a.accumulate(&b);
        assert_eq!(a.checkpoints_written, 2);
        assert_eq!(a.retries, 3);
        assert!(a.degraded);
        assert!(a.any());
        assert!(a.summary().contains("DEGRADED"));
        assert!(!RecoveryStats::default().any());
    }
}
