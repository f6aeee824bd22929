//! # `ins-core` — the InSURE power-management core
//!
//! The reproduction of the paper's primary contribution: a joint
//! spatio-temporal power-management scheme for standalone, solar-powered
//! in-situ server systems, co-simulated end to end.
//!
//! * [`mode`] — the four e-Buffer operating modes and the seven-edge
//!   transition diagram (Fig. 7–8),
//! * [`config`] — controller tunables with prototype defaults,
//! * [`spm`] — spatial power management: wear-balancing screening (Eq. 1,
//!   Fig. 9) and solar-adaptive batch charging (`N = PG/PPC`, Fig. 10),
//! * [`tpm`] — temporal power management: the Fig. 11 discharge-capping
//!   flow chart,
//! * [`controller`] — the [`controller::InsureController`] plus the two
//!   evaluation comparisons (grid-green-style baseline, non-optimized
//!   fixed schedule),
//! * [`engine`] — the service-mode policy pipeline: signals → state
//!   classification → [`engine::PolicyDecision`] through
//!   [`engine::decide`], and the [`engine::lineup`] registry of the
//!   three policies,
//! * [`health`] — health monitoring from observable signals (voltage
//!   divergence, stale telemetry) and quarantine of failed e-Buffer
//!   units, feeding SPM re-selection and degraded-mode operation,
//! * [`recovery`] — staged black-start after emergency shutdowns and
//!   blackouts: power-budget-gated admission of VMs in stages,
//! * [`system`] — the full co-simulation wiring solar, switch matrix,
//!   batteries, charger, load bus, rack and workload together,
//! * [`metrics`] — the paper's service- and system-related metrics and
//!   Table 6 log counters,
//! * [`log`] — per-day Table 6-style log extraction from multi-day runs.
//!
//! # Examples
//!
//! ```
//! use ins_core::controller::InsureController;
//! use ins_core::metrics::RunMetrics;
//! use ins_core::system::InSituSystem;
//! use ins_sim::time::{SimDuration, SimTime};
//! use ins_solar::trace::high_generation_day;
//!
//! let mut sys = InSituSystem::builder(
//!     high_generation_day(1),
//!     Box::new(InsureController::default()),
//! )
//! .time_step(SimDuration::from_secs(60))
//! .build();
//! sys.run_until(SimTime::from_hms(12, 0, 0));
//! let metrics = RunMetrics::collect(&sys);
//! assert!(metrics.solar_kwh > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod controller;
pub mod engine;
pub mod health;
pub mod log;
pub mod metrics;
pub mod mode;
pub mod recovery;
pub mod spm;
pub mod system;
pub mod tpm;

pub use config::{ConfigError, InsureConfig};
pub use controller::{
    BaselineController, ControlAction, InsureController, NoOptController, PowerController,
    SystemObservation,
};
pub use engine::{EngineError, PolicyDecision, StateClass};
pub use health::{HealthConfig, HealthMonitor, UnitCondition};
pub use metrics::RunMetrics;
pub use mode::{BufferMode, TransitionCause};
pub use recovery::{BlackStartConfig, RecoveryCoordinator, RecoveryPhase};
pub use system::{InSituSystem, SystemBuilder, SystemEvent, WorkloadModel};
