//! Simulation configuration.

use crate::faults::FaultConfig;
use crate::session::SessionConfig;
use ddp_topology::TopologyConfig;
use ddp_workload::content::ContentConfig;
use ddp_workload::{BandwidthModel, LifetimeModel, QueryArrivals};

/// How a saturated peer shares its processing capacity among neighbors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForwardingPolicy {
    /// First-come-first-served: whoever's queries arrive first consume the
    /// budget (plain Gnutella; attack traffic crowds out good traffic).
    Fifo,
    /// Per-incoming-link fair share, the Daswani & Garcia-Molina–style
    /// application-layer load-balancing baseline the paper cites as \[21\]:
    /// each incoming link may consume at most `fair_share_factor × capacity /
    /// degree` of the peer's capacity.
    FairShare,
}

/// All knobs of one simulation run. Defaults mirror §3.5 of the paper at
/// bench scale (2,000 peers); [`SimConfig::paper_scale`] selects the full
/// 20,000-peer setting.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Overlay topology to generate.
    pub topology: TopologyConfig,
    /// Flood TTL for queries. The classic Gnutella TTL is 7; on our dense
    /// mean-degree-6 overlays TTL 4 already reaches a large audience while
    /// keeping the unattacked network below saturation (see DESIGN.md §6).
    pub ttl: u8,
    /// Mean good-peer query processing capacity, queries/minute (§2.3
    /// measures ~15,000/min for a dedicated peer; the paper then assumes "a
    /// good peer is capable of processing 1,000 queries per minute" for
    /// peers with conventional tasks).
    pub good_capacity_qpm: u32,
    /// Relative spread of per-peer capacity: each peer's capacity is drawn
    /// uniformly from `mean × [1 − spread, 1 + spread]`. Real peers differ
    /// in hardware and local-index size (§2.3 notes both), and the
    /// heterogeneity is what smears detection-error magnitudes across the
    /// cut-threshold range instead of clustering them at one value.
    pub capacity_spread: f64,
    /// Attacker generation capability, queries/minute (§2.3: "a bad peer is
    /// capable of sending 20,000 queries per minute").
    pub attacker_rate_qpm: u32,
    /// Query issue process for good peers.
    pub arrivals: QueryArrivals,
    /// Shared-content catalog settings.
    pub content: ContentConfig,
    /// Session lifetime model (churn).
    pub lifetime: LifetimeModel,
    /// Peer bandwidth population.
    pub bandwidth: BandwidthModel,
    /// Whether peers churn at all.
    pub churn: bool,
    /// Ticks a departed slot stays offline before rejoining as a new peer.
    pub rejoin_delay_ticks: u32,
    /// Ticks a defensively disconnected attacker waits before re-connecting.
    /// `u32::MAX` (the default) disables rejoin, matching the paper's
    /// simulations where damage decays monotonically once agents are cut;
    /// §3.7.2's remark that "no mechanism can prevent the DDoS agent from
    /// joining the system again" is exercised as an extension experiment.
    pub attacker_rejoin_delay_ticks: u32,
    /// Number of fresh connections a (re)joining peer establishes.
    pub join_degree: usize,
    /// One-way per-hop overlay latency, seconds.
    pub hop_latency_secs: f64,
    /// Per-query processing time at an idle peer, seconds.
    pub proc_delay_secs: f64,
    /// Capacity sharing policy at saturated peers.
    pub forwarding: ForwardingPolicy,
    /// FairShare: multiple of the equal share one link may consume.
    pub fair_share_factor: f64,
    /// Query timeout: successful responses slower than this count as failed.
    pub response_timeout_secs: f64,
    /// Control-plane fault injection (lost/delayed protocol messages,
    /// crash-restarting peers). Inert by default — the reliable-transport
    /// setting the paper assumes.
    pub faults: FaultConfig,
    /// Open-membership session model: Poisson arrivals of brand-new peers,
    /// permanent leave/crash departures, and arena growth. `None` (the
    /// default) keeps the legacy fixed-slot churn above and reproduces every
    /// pre-session run tick-for-tick; when set, it supersedes the `churn` /
    /// `lifetime` / `rejoin_delay_ticks` recycling model for good peers.
    pub session: Option<SessionConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            topology: TopologyConfig::default(),
            ttl: 4,
            good_capacity_qpm: 1_000,
            capacity_spread: 0.5,
            attacker_rate_qpm: 20_000,
            arrivals: QueryArrivals::default(),
            content: ContentConfig::default(),
            lifetime: LifetimeModel::default(),
            bandwidth: BandwidthModel::default(),
            churn: true,
            rejoin_delay_ticks: 1,
            attacker_rejoin_delay_ticks: u32::MAX,
            join_degree: 3,
            hop_latency_secs: 0.05,
            proc_delay_secs: 0.004,
            forwarding: ForwardingPolicy::Fifo,
            fair_share_factor: 2.0,
            response_timeout_secs: 60.0,
            faults: FaultConfig::default(),
            session: None,
        }
    }
}

impl SimConfig {
    /// The paper's full-scale setting: 20,000 peers.
    pub fn paper_scale() -> Self {
        SimConfig { topology: TopologyConfig::paper_scale(), ..SimConfig::default() }
    }

    /// Number of peers in the configured topology.
    pub fn peers(&self) -> usize {
        self.topology.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_constants() {
        let c = SimConfig::default();
        assert_eq!(c.good_capacity_qpm, 1_000);
        assert_eq!(c.attacker_rate_qpm, 20_000);
        assert!((c.arrivals.rate_qpm - 0.3).abs() < 1e-12);
        assert!(c.churn);
    }

    #[test]
    fn paper_scale_has_20k_peers() {
        assert_eq!(SimConfig::paper_scale().peers(), 20_000);
    }
}

/// A configuration problem detected by [`SimConfig::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid SimConfig: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

impl SimConfig {
    /// Check the configuration for values that would make a run meaningless
    /// (the constructors accept anything; experiments call this before
    /// spending wall-clock on a nonsense run).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.peers() < 2 {
            return Err(ConfigError("need at least 2 peers".into()));
        }
        if self.ttl == 0 {
            return Err(ConfigError("ttl of 0 floods nothing".into()));
        }
        if self.good_capacity_qpm == 0 {
            return Err(ConfigError("good peers with zero capacity cannot forward".into()));
        }
        if !(0.0..=0.95).contains(&self.capacity_spread) {
            return Err(ConfigError(format!(
                "capacity_spread {} outside [0, 0.95]",
                self.capacity_spread
            )));
        }
        if self.join_degree == 0 {
            return Err(ConfigError("join_degree 0 strands rejoining peers".into()));
        }
        if self.hop_latency_secs < 0.0 || self.proc_delay_secs < 0.0 {
            return Err(ConfigError("latencies must be non-negative".into()));
        }
        if self.response_timeout_secs <= 0.0 {
            return Err(ConfigError("response timeout must be positive".into()));
        }
        if self.fair_share_factor < 1.0 {
            return Err(ConfigError(format!(
                "fair_share_factor {} < 1 starves every link",
                self.fair_share_factor
            )));
        }
        self.content.validate().map_err(ConfigError)?;
        self.faults.validate().map_err(ConfigError)?;
        if let Some(session) = &self.session {
            session.validate().map_err(ConfigError)?;
            if session.max_peers < self.peers() {
                return Err(ConfigError(format!(
                    "session max_peers {} below the starting population {}",
                    session.max_peers,
                    self.peers()
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod validate_tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        assert_eq!(SimConfig::default().validate(), Ok(()));
        assert_eq!(SimConfig::paper_scale().validate(), Ok(()));
    }

    #[test]
    fn bad_values_are_rejected_with_reasons() {
        let c = SimConfig { ttl: 0, ..SimConfig::default() };
        assert!(c.validate().unwrap_err().0.contains("ttl"));

        let c = SimConfig { good_capacity_qpm: 0, ..SimConfig::default() };
        assert!(c.validate().unwrap_err().0.contains("capacity"));

        let c = SimConfig { capacity_spread: 2.0, ..SimConfig::default() };
        assert!(c.validate().unwrap_err().0.contains("spread"));

        let c = SimConfig { fair_share_factor: 0.5, ..SimConfig::default() };
        assert!(c.validate().unwrap_err().0.contains("fair_share"));

        let c = SimConfig { response_timeout_secs: 0.0, ..SimConfig::default() };
        assert!(c.validate().is_err());

        let c = SimConfig {
            faults: FaultConfig { loss: 1.2, ..FaultConfig::default() },
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().0.contains("loss"));

        let mut bad_session = SessionConfig::steady_state(100, 5.0);
        bad_session.crash_fraction = -0.1;
        let c = SimConfig { session: Some(bad_session), ..SimConfig::default() };
        assert!(c.validate().unwrap_err().0.contains("crash_fraction"));

        // A cap below the starting population strands the event stream.
        let c = SimConfig {
            session: Some(SessionConfig { max_peers: 10, ..SessionConfig::steady_state(100, 5.0) }),
            ..SimConfig::default()
        };
        assert!(c.validate().unwrap_err().0.contains("max_peers"));

        let c = SimConfig {
            session: Some(SessionConfig::steady_state(2_000, 10.0)),
            ..SimConfig::default()
        };
        assert_eq!(c.validate(), Ok(()));
    }

    fn with_content(content: ContentConfig) -> SimConfig {
        SimConfig { content, ..SimConfig::default() }
    }

    #[test]
    fn libraries_larger_than_the_catalog_are_rejected() {
        // Distinct-object sampling could never fill such a library.
        let c = with_content(ContentConfig { num_objects: 10, objects_per_peer: 11, alpha: 0.8 });
        assert!(c.validate().unwrap_err().0.contains("content.objects_per_peer"));
        let c = with_content(ContentConfig { num_objects: 10, objects_per_peer: 10, alpha: 0.8 });
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn an_empty_catalog_is_rejected() {
        let c = with_content(ContentConfig { num_objects: 0, objects_per_peer: 0, alpha: 0.8 });
        assert!(c.validate().unwrap_err().0.contains("content.num_objects"));
    }

    #[test]
    fn a_non_positive_or_non_finite_alpha_is_rejected() {
        for alpha in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let c = with_content(ContentConfig { alpha, ..ContentConfig::default() });
            assert!(c.validate().unwrap_err().0.contains("content.alpha"), "alpha {alpha}");
        }
    }
}
