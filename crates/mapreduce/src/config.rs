//! Engine configuration: the model parameters `M_L` (local memory) and the
//! emulation's parallelism.

/// Configuration for [`crate::engine::MrEngine`] and
/// [`crate::vertex::VertexEngine`].
#[derive(Clone, Debug)]
pub struct MrConfig {
    /// Number of hash partitions a round's key space is split into; also the
    /// upper bound on reducer-level parallelism. Defaults to
    /// `4 × available threads` (over-partitioning smooths skew, as in Spark).
    pub partitions: usize,
    /// The model's `M_L`: maximum number of pairs a single reducer group may
    /// receive. `None` disables the limit (pure accounting mode).
    pub local_memory: Option<usize>,
    /// If `true`, exceeding `local_memory` aborts the round with
    /// [`crate::MrError::LocalMemoryExceeded`]; if `false`, violations are
    /// only counted in the round stats.
    pub enforce_local_memory: bool,
}

impl Default for MrConfig {
    fn default() -> Self {
        MrConfig {
            partitions: MrConfig::default_partitions(),
            local_memory: None,
            enforce_local_memory: false,
        }
    }
}

/// Environment variable consulted by [`MrConfig::default_partitions`]; the
/// CLI's `--partitions` option overrides it.
pub const PARTITIONS_ENV: &str = "PARDEC_PARTITIONS";

impl MrConfig {
    /// The default partition count shared by [`crate::engine::MrEngine`] and
    /// [`crate::vertex::VertexEngine`]: the `PARDEC_PARTITIONS` environment
    /// variable when set, else `4 × pool threads` — the Spark-style
    /// over-partitioning factor that smooths skew across reducers. An empty
    /// value counts as unset (a CI matrix leg without a partition count
    /// exports the empty string, same as `PARDEC_DELTA`).
    ///
    /// Note that the partition count shapes *scheduling* (and the stats
    /// ledger's notion of a reducer / map chunk), never *results*: both
    /// engines produce partition-count-independent outputs for the
    /// commutative combiners this workspace uses (CI runs the whole suite
    /// under `PARDEC_PARTITIONS=3` to lock that in).
    ///
    /// # Panics
    /// Panics on an unparsable or zero value — a misspelled CI matrix entry
    /// must fail loudly rather than silently fall back to the default.
    pub fn default_partitions() -> usize {
        std::env::var(PARTITIONS_ENV)
            .ok()
            .and_then(|raw| partitions_from_env_value(&raw))
            .unwrap_or_else(|| 4 * rayon::current_num_threads().max(1))
    }
    /// Accounting-only configuration with an explicit partition count.
    pub fn with_partitions(partitions: usize) -> Self {
        MrConfig {
            partitions: partitions.max(1),
            ..Default::default()
        }
    }

    /// Sets a hard `M_L` budget (pairs per reducer group) with enforcement.
    pub fn with_local_memory(mut self, ml: usize) -> Self {
        self.local_memory = Some(ml);
        self.enforce_local_memory = true;
        self
    }

    /// Sets an `M_L` budget that is recorded but not enforced.
    pub fn with_soft_local_memory(mut self, ml: usize) -> Self {
        self.local_memory = Some(ml);
        self.enforce_local_memory = false;
        self
    }
}

/// [`MrConfig::default_partitions`] on the variable's raw value: `None` when
/// it is empty.
fn partitions_from_env_value(raw: &str) -> Option<usize> {
    let raw = raw.trim();
    if raw.is_empty() {
        return None;
    }
    match raw.parse::<usize>() {
        Ok(0) => panic!("{PARTITIONS_ENV}: partition count must be positive"),
        Ok(n) => Some(n),
        Err(e) => panic!("{PARTITIONS_ENV}: invalid partition count {raw:?}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_sane() {
        let c = MrConfig::default();
        // ≥ 4 without PARDEC_PARTITIONS (4 × threads); any positive count
        // when the environment pins one (CI's odd-partition leg uses 3).
        if std::env::var(PARTITIONS_ENV).is_err() {
            assert!(c.partitions >= 4);
        }
        assert!(c.partitions >= 1);
        assert!(c.local_memory.is_none());
    }

    #[test]
    fn default_partitions_is_the_shared_helper() {
        assert_eq!(
            MrConfig::default().partitions,
            MrConfig::default_partitions()
        );
        // The ambient default honours PARDEC_PARTITIONS (the CI odd-partition
        // leg sets it to 3); without it, the 4×threads Spark factor applies.
        let expect = match std::env::var(PARTITIONS_ENV).ok().as_deref().map(str::trim) {
            Some(raw) if !raw.is_empty() => raw.parse().unwrap(),
            _ => 4 * rayon::current_num_threads().max(1),
        };
        assert_eq!(MrConfig::default_partitions(), expect);
    }

    // The environment is never set here: other tests read it concurrently.
    #[test]
    fn partitions_env_value_parses() {
        assert_eq!(partitions_from_env_value(""), None);
        assert_eq!(partitions_from_env_value(" \t\n"), None);
        assert_eq!(partitions_from_env_value("3"), Some(3));
        assert_eq!(partitions_from_env_value(" 17\n"), Some(17));
    }

    #[test]
    #[should_panic(expected = "PARDEC_PARTITIONS: invalid partition count \"abc\"")]
    fn partitions_env_value_rejects_garbage() {
        partitions_from_env_value("abc");
    }

    #[test]
    #[should_panic(expected = "PARDEC_PARTITIONS: partition count must be positive")]
    fn partitions_env_value_rejects_zero() {
        partitions_from_env_value(" 0 ");
    }

    #[test]
    fn builders() {
        let c = MrConfig::with_partitions(0);
        assert_eq!(c.partitions, 1); // clamped
        let c = MrConfig::with_partitions(8).with_local_memory(100);
        assert_eq!(c.local_memory, Some(100));
        assert!(c.enforce_local_memory);
        let c = MrConfig::with_partitions(8).with_soft_local_memory(100);
        assert!(!c.enforce_local_memory);
    }
}
