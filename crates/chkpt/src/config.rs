//! Engine configuration.

use nvm_heap::{Materialization, Versioning};
use nvm_paging::Granularity;
use serde::{Deserialize, Serialize};

/// Which pre-copy scheme the engine runs (Section IV of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PrecopyPolicy {
    /// No pre-copy: the entire dirty set is copied at the coordinated
    /// checkpoint (the paper's "no pre-copy" baseline).
    None,
    /// Chunk-based pre-copy: dirty chunks stream to NVM in the
    /// background from the start of the compute interval.
    Cpc,
    /// Delayed chunk pre-copy: background copying starts only at the
    /// pre-copy threshold `T_p = I - D / NVMBW_core`, so chunks that
    /// mutate early in the interval are not copied repeatedly.
    Dcpc,
    /// Delayed pre-copy with prediction: DCPC plus a per-chunk
    /// modification-count prediction table; *hot chunks* (those that
    /// mutate until the end of the interval) are not pre-copied until
    /// their learned modification count is reached.
    Dcpcp,
}

impl PrecopyPolicy {
    /// Whether any background copying happens at all.
    pub fn enabled(self) -> bool {
        !matches!(self, PrecopyPolicy::None)
    }

    /// Whether the threshold delay applies.
    pub fn delayed(self) -> bool {
        matches!(self, PrecopyPolicy::Dcpc | PrecopyPolicy::Dcpcp)
    }

    /// Whether the prediction table gates pre-copy.
    pub fn predictive(self) -> bool {
        matches!(self, PrecopyPolicy::Dcpcp)
    }
}

/// Rejected engine configurations (raised by
/// [`EngineConfigBuilder::build`] and at engine construction, so an
/// invalid combination fails before a run starts instead of mid-run).
#[non_exhaustive]
#[derive(Clone, Debug, PartialEq)]
pub enum ConfigError {
    /// `node_concurrency` must be at least 1.
    ZeroNodeConcurrency,
    /// Checksums need real bytes: `checksums = true` is meaningless
    /// with size-only (synthetic) payloads.
    ChecksumsRequireBytes,
    /// The engine's NVM shadow container must not be empty.
    ZeroShadowRegion,
    /// The DRAM and NVM handles are two handles onto one device. The
    /// engine nests the two devices' locks (DRAM, then NVM), which one
    /// device cannot do.
    SharedDevice,
}

nvm_emu::error_enum! {
    ConfigError, f {
        leaf ConfigError::ZeroNodeConcurrency =>
            write!(f, "node_concurrency must be >= 1"),
        leaf ConfigError::ChecksumsRequireBytes =>
            write!(f, "checksums require byte-backed (non-synthetic) materialization"),
        leaf ConfigError::ZeroShadowRegion =>
            write!(f, "NVM shadow container capacity must be > 0"),
        leaf ConfigError::SharedDevice =>
            write!(f, "the DRAM and NVM handles must be two different devices"),
    }
}

/// Full engine configuration.
///
/// Construct via [`EngineConfig::builder`] (validating) or start from
/// [`EngineConfig::default`] and use the `with_*` setters. The engine
/// re-validates at construction, so invalid combinations are caught
/// even for hand-assembled structs.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EngineConfig {
    /// Pre-copy scheme.
    pub precopy: PrecopyPolicy,
    /// One or two NVM versions per chunk.
    pub versioning: Versioning,
    /// Chunk- or page-level protection (page-level only for ablation).
    pub granularity: Granularity,
    /// Compute per-chunk checksums at commit and verify on restart.
    pub checksums: bool,
    /// Byte-backed or size-only payloads.
    pub materialization: Materialization,
    /// How many application processes share this node's NVM device
    /// during a coordinated checkpoint (sets the contention level the
    /// device model sees).
    pub node_concurrency: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            precopy: PrecopyPolicy::Dcpcp,
            versioning: Versioning::Double,
            granularity: Granularity::Chunk,
            checksums: true,
            materialization: Materialization::Bytes,
            node_concurrency: 1,
        }
    }
}

impl EngineConfig {
    /// Validating builder, seeded with the default configuration.
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }

    /// Check the configuration for invalid combinations. Called by
    /// [`EngineConfigBuilder::build`] and by the engine constructor.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.node_concurrency == 0 {
            return Err(ConfigError::ZeroNodeConcurrency);
        }
        if self.checksums && self.materialization == Materialization::Synthetic {
            return Err(ConfigError::ChecksumsRequireBytes);
        }
        Ok(())
    }

    /// Builder-style setter for the pre-copy policy.
    pub fn with_precopy(mut self, p: PrecopyPolicy) -> Self {
        self.precopy = p;
        self
    }

    /// Builder-style setter for materialization.
    pub fn with_materialization(mut self, m: Materialization) -> Self {
        self.materialization = m;
        self
    }

    /// Builder-style setter for protection granularity.
    pub fn with_granularity(mut self, g: Granularity) -> Self {
        self.granularity = g;
        self
    }

    /// Builder-style setter for checksumming.
    pub fn with_checksums(mut self, on: bool) -> Self {
        self.checksums = on;
        self
    }
}

/// Validating builder for [`EngineConfig`].
///
/// The builder stores exactly what it is given and [`build`] rejects
/// invalid combinations with a [`ConfigError`].
///
/// [`build`]: EngineConfigBuilder::build
#[derive(Clone, Debug)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Set the pre-copy policy.
    pub fn precopy(mut self, p: PrecopyPolicy) -> Self {
        self.config.precopy = p;
        self
    }

    /// Set the versioning scheme.
    pub fn versioning(mut self, v: Versioning) -> Self {
        self.config.versioning = v;
        self
    }

    /// Enable or disable commit-time checksums.
    pub fn checksums(mut self, on: bool) -> Self {
        self.config.checksums = on;
        self
    }

    /// Set byte-backed or size-only payloads. Disabling bytes also
    /// requires disabling checksums (validated at [`build`]).
    ///
    /// [`build`]: EngineConfigBuilder::build
    pub fn materialization(mut self, m: Materialization) -> Self {
        self.config.materialization = m;
        self
    }

    /// Set how many ranks share the node's NVM device.
    pub fn node_concurrency(mut self, n: usize) -> Self {
        self.config.node_concurrency = n;
        self
    }

    /// Validate and produce the configuration.
    pub fn build(self) -> Result<EngineConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_predicates() {
        assert!(!PrecopyPolicy::None.enabled());
        assert!(PrecopyPolicy::Cpc.enabled());
        assert!(!PrecopyPolicy::Cpc.delayed());
        assert!(PrecopyPolicy::Dcpc.delayed());
        assert!(!PrecopyPolicy::Dcpc.predictive());
        assert!(PrecopyPolicy::Dcpcp.delayed());
        assert!(PrecopyPolicy::Dcpcp.predictive());
    }

    #[test]
    fn builder_accepts_valid_configs() {
        let c = EngineConfig::builder()
            .precopy(PrecopyPolicy::Cpc)
            .materialization(Materialization::Synthetic)
            .checksums(false)
            .node_concurrency(12)
            .build()
            .unwrap();
        assert_eq!(c.precopy, PrecopyPolicy::Cpc);
        assert_eq!(c.node_concurrency, 12);
        // Untouched knobs come from Default.
        assert_eq!(c.versioning, EngineConfig::default().versioning);
    }

    #[test]
    fn builder_defaults_match_default() {
        assert_eq!(EngineConfig::builder().build().unwrap(), {
            EngineConfig::default()
        });
    }

    #[test]
    fn builder_rejects_invalid_combinations() {
        assert_eq!(
            EngineConfig::builder().node_concurrency(0).build(),
            Err(ConfigError::ZeroNodeConcurrency)
        );
        assert_eq!(
            EngineConfig::builder()
                .materialization(Materialization::Synthetic)
                .build(),
            Err(ConfigError::ChecksumsRequireBytes)
        );
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default()
            .with_precopy(PrecopyPolicy::Cpc)
            .with_checksums(false);
        assert_eq!(c.precopy, PrecopyPolicy::Cpc);
        assert!(!c.checksums);
    }
}
