//! Full-system co-simulation: solar → e-Buffer → servers → workload.
//!
//! [`InSituSystem`] wires every substrate together and advances them in
//! lock-step, playing the role of the prototype's "power and load
//! coordination" node (§4): it observes the system once per control
//! period, asks the installed [`PowerController`] for orders, applies
//! them through the switch matrix and rack, settles the power flow, and
//! keeps the logs the paper mines for its evaluation.

use ins_battery::{BatteryId, BatteryParams, BatteryUnit};
use ins_cluster::rack::Rack;
use ins_powernet::bus::LoadBus;
use ins_powernet::charger::ChargeController;
use ins_powernet::matrix::{Attachment, SwitchMatrix};
use ins_powernet::relay::RelayFault;
use ins_sim::fault::{FaultClass, FaultEvent, FaultKind, FaultSchedule};
use ins_sim::log::EventLog;
use ins_sim::rng::SimRng;
use ins_sim::stats::RunningStats;
use ins_sim::time::{SimClock, SimDuration, SimTime};
use ins_sim::trace::Trace;
use ins_sim::units::{AmpHours, Amps, Soc, Volts, WattHours, Watts};
use ins_solar::SolarTrace;
use ins_workload::batch::{BatchSpec, BatchWorkload};
use ins_workload::checkpoint::{
    CheckpointCounters, CheckpointPolicy, JobCheckpointer, RestartOutcome,
};
use ins_workload::scaling::ScalingModel;
use ins_workload::stream::{StreamSpec, StreamWorkload};

use crate::controller::{ControlAction, PowerController, SnapshotController, SystemObservation};
use crate::spm::UnitView;
use crate::tpm::LoadKnob;

/// The workload driving the cluster.
#[derive(Debug, Clone)]
pub enum WorkloadModel {
    /// Intermittent batch jobs (seismic surveys).
    Batch {
        /// Job queue and completion stats.
        workload: BatchWorkload,
        /// Cluster throughput scaling.
        scaling: ScalingModel,
        /// CPU utilization the workload drives while running.
        utilization: f64,
    },
    /// Continuous data stream (video surveillance).
    Stream {
        /// Backlog and delay stats.
        workload: StreamWorkload,
        /// Cluster throughput scaling.
        scaling: ScalingModel,
        /// CPU utilization the workload drives while running.
        utilization: f64,
    },
}

impl WorkloadModel {
    /// The paper's seismic case study (Table 2 parameters).
    #[must_use]
    pub fn seismic() -> Self {
        WorkloadModel::Batch {
            workload: BatchWorkload::new(BatchSpec::seismic()),
            scaling: ScalingModel::seismic_analysis(),
            utilization: 0.41,
        }
    }

    /// The paper's video-surveillance case study (Table 3 parameters).
    #[must_use]
    pub fn video() -> Self {
        WorkloadModel::Stream {
            workload: StreamWorkload::new(StreamSpec::video_surveillance()),
            scaling: ScalingModel::video_surveillance(),
            utilization: 0.41,
        }
    }

    /// The TPM knob this workload exposes.
    #[must_use]
    pub fn knob(&self) -> LoadKnob {
        match self {
            WorkloadModel::Batch { .. } => LoadKnob::DutyCycle,
            WorkloadModel::Stream { .. } => LoadKnob::VmCount,
        }
    }

    /// CPU utilization while processing.
    #[must_use]
    pub fn utilization(&self) -> f64 {
        match self {
            WorkloadModel::Batch { utilization, .. }
            | WorkloadModel::Stream { utilization, .. } => *utilization,
        }
    }

    /// Cluster capacity at the given VM count and duty, GB/hour.
    #[must_use]
    pub fn capacity_gb_per_hour(&self, vms: u32, duty: f64) -> f64 {
        match self {
            WorkloadModel::Batch { scaling, .. } | WorkloadModel::Stream { scaling, .. } => {
                scaling.gb_per_hour(vms, duty)
            }
        }
    }

    /// Advances the workload by `dt` at `gb_per_hour` capacity.
    pub fn step(&mut self, now: SimTime, dt: SimDuration, gb_per_hour: f64) {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.step(now, dt, gb_per_hour),
            WorkloadModel::Stream { workload, .. } => workload.step(dt, gb_per_hour),
        }
    }

    /// Re-queues `gb` of crash-lost work for replay: a front-of-queue
    /// replay job for batch, extra backlog for streams.
    pub fn requeue_gb(&mut self, now: SimTime, gb: f64) {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.requeue_gb(now, gb),
            WorkloadModel::Stream { workload, .. } => workload.requeue_gb(gb),
        }
    }

    /// Caps a stream's post-outage drain rate at `factor ×` the arrival
    /// rate (no effect on batch workloads).
    pub fn set_max_catchup_factor(&mut self, factor: f64) {
        if let WorkloadModel::Stream { workload, .. } = self {
            workload.set_max_catchup_factor(factor);
        }
    }

    /// Data processed so far, GB.
    #[must_use]
    pub fn processed_gb(&self) -> f64 {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.processed_gb(),
            WorkloadModel::Stream { workload, .. } => workload.processed_gb(),
        }
    }

    /// Data waiting, GB.
    #[must_use]
    pub fn pending_gb(&self) -> f64 {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.pending_gb(),
            WorkloadModel::Stream { workload, .. } => workload.backlog_gb(),
        }
    }

    /// Mean service latency in minutes (job turnaround for batch, queue
    /// delay for streams).
    #[must_use]
    pub fn mean_latency_minutes(&self) -> f64 {
        match self {
            WorkloadModel::Batch { workload, .. } => workload.mean_turnaround_minutes(),
            WorkloadModel::Stream { workload, .. } => workload.mean_delay_minutes(),
        }
    }
}

/// Notable events recorded during a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SystemEvent {
    /// The controller ordered an emergency checkpoint + shutdown.
    EmergencyShutdown,
    /// The power sources could not cover the demand: servers browned out
    /// and were forcibly checkpointed.
    BrownOut,
    /// A battery unit tripped its protection cutoff while discharging.
    CutoffTrip(BatteryId),
    /// An injected fault of the given class struck the system.
    FaultInjected(FaultClass),
    /// A job checkpoint write completed and became durable.
    CheckpointWritten,
    /// A crash tore an in-flight checkpoint write (the artifact is
    /// discarded; recovery falls back to the previous durable state).
    CheckpointTorn,
    /// The durable checkpoint was invalidated (corruption or an
    /// unwritable checkpoint path); recovery falls back to the baseline.
    CheckpointLost,
    /// Recovery restored job state from a durable checkpoint.
    CheckpointRestored,
    /// An outage episode ended: the rack serves again and any pending
    /// restore completed (or the job was quarantined).
    Recovered,
}

/// Sense/reference current used when reading a unit's terminal voltage
/// and protection-cutoff state (≈ one rack's share of the pack).
const SENSE_CURRENT: Amps = Amps::new(10.0);

/// An active stale-telemetry window on one unit: the controller sees the
/// frozen snapshot (with a growing age) until the window expires.
#[derive(Debug, Clone, Copy)]
struct StaleWindow {
    since: SimTime,
    until: SimTime,
    frozen: UnitView,
}

/// The assembled in-situ system.
pub struct InSituSystem {
    clock: SimClock,
    solar: SolarTrace,
    units: Vec<BatteryUnit>,
    matrix: SwitchMatrix,
    charger: ChargeController,
    bus: LoadBus,
    rack: Rack,
    workload: WorkloadModel,
    controller: Box<dyn PowerController>,
    control_period: SimDuration,
    started: SimTime,
    last_control: Option<SimTime>,
    last_discharge_current: Amps,

    // Fault-injection state.
    faults: FaultSchedule,
    sensor_rng: SimRng,
    /// Active sensor-noise window: `(sigma, until)`.
    sensor_noise: Option<(f64, SimTime)>,
    charger_dropout_until: Option<SimTime>,
    stale_windows: Vec<Option<StaleWindow>>,
    /// Checkpoint-path faults pending repair: `(server index, until)`.
    checkpoint_faults: Vec<(usize, SimTime)>,
    /// Restart storm in progress: restore attempts fail until this
    /// instant.
    restart_storm_until: Option<SimTime>,

    // Step-loop fast path: bus memberships recomputed only when the
    // switch matrix reports a relay-state change (`None` = dirty).
    matrix_cache_generation: Option<u64>,
    cached_discharging: Vec<BatteryId>,
    cached_charging: Vec<BatteryId>,

    // Checkpoint/recovery state (None = checkpointing disabled).
    checkpointer: Option<JobCheckpointer>,
    /// Periodic-write pacing: last instant a write was attempted.
    last_checkpoint_attempt: Option<SimTime>,
    /// Job state must be restored before the workload may progress.
    needs_recovery: bool,
    /// When the current outage episode began (MTTR measurement).
    outage_started: Option<SimTime>,
    /// Completed outage episodes, for MTTR.
    recovery_durations: Vec<SimDuration>,
    /// Crash-lost work replayed or abandoned so far, GB.
    lost_work_gb: f64,
    /// Unrecoverable losses: durable-checkpoint corruption and poison-job
    /// quarantines.
    data_loss_events: u64,
    /// Cumulative brownouts (exposed to the controller observation).
    brownouts: usize,

    // Measurement state.
    trace_solar: Trace,
    trace_load: Trace,
    trace_stored: Trace,
    trace_pack_voltage: Trace,
    voltage_stats: RunningStats,
    events: EventLog<SystemEvent>,
    solar_harvested: WattHours,
    solar_used_load: WattHours,
    solar_used_charge: WattHours,
    battery_delivered: WattHours,
    served_time: SimDuration,
    demand_time: SimDuration,
}

impl core::fmt::Debug for InSituSystem {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("InSituSystem")
            .field("now", &self.clock.now())
            .field("controller", &self.controller.name())
            .field("units", &self.units.len())
            .finish_non_exhaustive()
    }
}

/// Why a system could not be snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The installed controller declined
    /// [`PowerController::fork_controller`]: it wraps state that cannot
    /// be duplicated (a service-mode engine, an external process), so a
    /// forked copy could not be byte-identical. Carries the controller's
    /// display name.
    ControllerNotForkable(&'static str),
}

impl core::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            Self::ControllerNotForkable(name) => {
                write!(f, "controller '{name}' does not support snapshot forking")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The frozen state behind a [`SystemSnapshot`]: every [`InSituSystem`]
/// field, verbatim, with the controller held through its snapshot handle.
///
/// Kept field-for-field parallel to [`InSituSystem`] (both sides use
/// exhaustive struct expressions, no `..`), so adding a field to one
/// without the other is a compile error — state can never silently fall
/// out of the fork path.
struct SnapshotState {
    clock: SimClock,
    solar: SolarTrace,
    units: Vec<BatteryUnit>,
    matrix: SwitchMatrix,
    charger: ChargeController,
    bus: LoadBus,
    rack: Rack,
    workload: WorkloadModel,
    controller: Box<dyn SnapshotController>,
    control_period: SimDuration,
    started: SimTime,
    last_control: Option<SimTime>,
    last_discharge_current: Amps,
    faults: FaultSchedule,
    sensor_rng: SimRng,
    sensor_noise: Option<(f64, SimTime)>,
    charger_dropout_until: Option<SimTime>,
    stale_windows: Vec<Option<StaleWindow>>,
    checkpoint_faults: Vec<(usize, SimTime)>,
    restart_storm_until: Option<SimTime>,
    matrix_cache_generation: Option<u64>,
    cached_discharging: Vec<BatteryId>,
    cached_charging: Vec<BatteryId>,
    checkpointer: Option<JobCheckpointer>,
    last_checkpoint_attempt: Option<SimTime>,
    needs_recovery: bool,
    outage_started: Option<SimTime>,
    recovery_durations: Vec<SimDuration>,
    lost_work_gb: f64,
    data_loss_events: u64,
    brownouts: usize,
    trace_solar: Trace,
    trace_load: Trace,
    trace_stored: Trace,
    trace_pack_voltage: Trace,
    voltage_stats: RunningStats,
    events: EventLog<SystemEvent>,
    solar_harvested: WattHours,
    solar_used_load: WattHours,
    solar_used_charge: WattHours,
    battery_delivered: WattHours,
    served_time: SimDuration,
    demand_time: SimDuration,
}

/// A copy-on-write snapshot of an [`InSituSystem`] mid-run.
///
/// The state sits behind an [`Arc`](std::sync::Arc), so handing a
/// snapshot to every worker of a sweep pool shares one frozen copy; each
/// [`InSituSystem::fork_from`] call then pays only for the clone it
/// actually needs. The snapshot embeds the job-checkpoint store (the
/// PR 3 [`ins_workload::checkpoint::CheckpointStore`], whose round-trip
/// guarantee the recovery tests pin) verbatim, so forked cells restore
/// from exactly the durable artifacts the prefix wrote.
///
/// Obtained from [`InSituSystem::snapshot`]; consumed (any number of
/// times, from any thread) by [`InSituSystem::fork_from`].
#[derive(Clone)]
pub struct SystemSnapshot {
    inner: std::sync::Arc<SnapshotState>,
}

impl core::fmt::Debug for SystemSnapshot {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("SystemSnapshot")
            .field("now", &self.inner.clock.now())
            .field("controller", &self.inner.controller.name())
            .field("units", &self.inner.units.len())
            .finish_non_exhaustive()
    }
}

impl SystemSnapshot {
    /// The instant the snapshot was taken (the forked run's first step
    /// starts here).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.inner.clock.now()
    }

    /// The fault schedule the snapshotted run carried. Forks that keep
    /// the same schedule (e.g. fleet sites, whose faults arrive at the
    /// fleet level) pass a clone of this to [`InSituSystem::fork_from`].
    #[must_use]
    pub fn faults(&self) -> &FaultSchedule {
        &self.inner.faults
    }
}

impl InSituSystem {
    /// Starts building a system.
    #[must_use]
    pub fn builder(solar: SolarTrace, controller: Box<dyn PowerController>) -> SystemBuilder {
        SystemBuilder::new(solar, controller)
    }

    /// Freezes the system's complete state into a shareable
    /// copy-on-write [`SystemSnapshot`].
    ///
    /// The incremental sweep engine simulates a grid's shared prefix
    /// once, snapshots it here, and forks every cell from the snapshot
    /// via [`InSituSystem::fork_from`]. The snapshot is a deep copy —
    /// mutating this system afterwards never disturbs it.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::ControllerNotForkable`] when the installed
    /// controller declines [`PowerController::fork_controller`] (service
    /// bridges, engine adapters): its state cannot be duplicated, so a
    /// fork could not be byte-identical to a from-scratch run.
    pub fn snapshot(&self) -> Result<SystemSnapshot, SnapshotError> {
        // Exhaustive destructuring: a new `InSituSystem` field that is
        // not also threaded through `SnapshotState` fails to compile
        // here, instead of silently resetting in every forked cell.
        let InSituSystem {
            clock,
            solar,
            units,
            matrix,
            charger,
            bus,
            rack,
            workload,
            controller,
            control_period,
            started,
            last_control,
            last_discharge_current,
            faults,
            sensor_rng,
            sensor_noise,
            charger_dropout_until,
            stale_windows,
            checkpoint_faults,
            restart_storm_until,
            matrix_cache_generation,
            cached_discharging,
            cached_charging,
            checkpointer,
            last_checkpoint_attempt,
            needs_recovery,
            outage_started,
            recovery_durations,
            lost_work_gb,
            data_loss_events,
            brownouts,
            trace_solar,
            trace_load,
            trace_stored,
            trace_pack_voltage,
            voltage_stats,
            events,
            solar_harvested,
            solar_used_load,
            solar_used_charge,
            battery_delivered,
            served_time,
            demand_time,
        } = self;
        let controller = controller
            .fork_controller()
            .ok_or(SnapshotError::ControllerNotForkable(self.controller.name()))?;
        Ok(SystemSnapshot {
            inner: std::sync::Arc::new(SnapshotState {
                clock: clock.clone(),
                solar: solar.clone(),
                units: units.clone(),
                matrix: matrix.clone(),
                charger: *charger,
                bus: *bus,
                rack: rack.clone(),
                workload: workload.clone(),
                controller,
                control_period: *control_period,
                started: *started,
                last_control: *last_control,
                last_discharge_current: *last_discharge_current,
                faults: faults.clone(),
                sensor_rng: sensor_rng.clone(),
                sensor_noise: *sensor_noise,
                charger_dropout_until: *charger_dropout_until,
                stale_windows: stale_windows.clone(),
                checkpoint_faults: checkpoint_faults.clone(),
                restart_storm_until: *restart_storm_until,
                matrix_cache_generation: *matrix_cache_generation,
                cached_discharging: cached_discharging.clone(),
                cached_charging: cached_charging.clone(),
                checkpointer: checkpointer.clone(),
                last_checkpoint_attempt: *last_checkpoint_attempt,
                needs_recovery: *needs_recovery,
                outage_started: *outage_started,
                recovery_durations: recovery_durations.clone(),
                lost_work_gb: *lost_work_gb,
                data_loss_events: *data_loss_events,
                brownouts: *brownouts,
                trace_solar: trace_solar.clone(),
                trace_load: trace_load.clone(),
                trace_stored: trace_stored.clone(),
                trace_pack_voltage: trace_pack_voltage.clone(),
                voltage_stats: *voltage_stats,
                events: events.clone(),
                solar_harvested: *solar_harvested,
                solar_used_load: *solar_used_load,
                solar_used_charge: *solar_used_charge,
                battery_delivered: *battery_delivered,
                served_time: *served_time,
                demand_time: *demand_time,
            }),
        })
    }

    /// Reconstructs a running system from a snapshot, installing `faults`
    /// as the cell's schedule.
    ///
    /// This is the fork half of the incremental sweep contract: when the
    /// snapshot was taken before the cell's first fault arrival (the
    /// planner's `fork_at` guarantees it) and no sensor-noise window was
    /// active, the forked system's trajectory is **byte-identical** to
    /// running the same configuration from scratch under `faults`.
    ///
    /// Two pieces of state are re-derived rather than copied, mirroring
    /// what [`SystemBuilder::build`] would have done for this cell:
    ///
    /// * the sensor-noise RNG restarts from `faults.seed()` — the stream
    ///   is untouched during a fault-free prefix, so the fork sees the
    ///   exact stream the scratch run would draw from;
    /// * events already delivered by the prefix's steps (`at <= now - dt`)
    ///   are marked spent via [`FaultSchedule::expire_delivered`], so a
    ///   mis-planned schedule can never re-fire a pre-fork fault late —
    ///   it is dropped, and the equivalence oracle (`--no-incremental`)
    ///   flags the divergence instead of compounding it.
    #[must_use]
    pub fn fork_from(snapshot: &SystemSnapshot, faults: FaultSchedule) -> InSituSystem {
        // Exhaustive destructuring again: see `snapshot`.
        let SnapshotState {
            clock,
            solar,
            units,
            matrix,
            charger,
            bus,
            rack,
            workload,
            controller,
            control_period,
            started,
            last_control,
            last_discharge_current,
            faults: _prefix_faults,
            sensor_rng: _prefix_sensor_rng,
            sensor_noise,
            charger_dropout_until,
            stale_windows,
            checkpoint_faults,
            restart_storm_until,
            matrix_cache_generation,
            cached_discharging,
            cached_charging,
            checkpointer,
            last_checkpoint_attempt,
            needs_recovery,
            outage_started,
            recovery_durations,
            lost_work_gb,
            data_loss_events,
            brownouts,
            trace_solar,
            trace_load,
            trace_stored,
            trace_pack_voltage,
            voltage_stats,
            events,
            solar_harvested,
            solar_used_load,
            solar_used_charge,
            battery_delivered,
            served_time,
            demand_time,
        } = &*snapshot.inner;
        let mut faults = faults;
        let now = clock.now();
        if now > *started {
            // The prefix's last step started at `now - dt` and drained
            // everything due then; those events are spent, not pending.
            faults.expire_delivered(now - clock.dt());
        }
        let sensor_rng = SimRng::seed(faults.seed()).fork("sensor-noise");
        InSituSystem {
            clock: clock.clone(),
            solar: solar.clone(),
            units: units.clone(),
            matrix: matrix.clone(),
            charger: *charger,
            bus: *bus,
            rack: rack.clone(),
            workload: workload.clone(),
            controller: controller.clone_snapshot(),
            control_period: *control_period,
            started: *started,
            last_control: *last_control,
            last_discharge_current: *last_discharge_current,
            faults,
            sensor_rng,
            sensor_noise: *sensor_noise,
            charger_dropout_until: *charger_dropout_until,
            stale_windows: stale_windows.clone(),
            checkpoint_faults: checkpoint_faults.clone(),
            restart_storm_until: *restart_storm_until,
            matrix_cache_generation: *matrix_cache_generation,
            cached_discharging: cached_discharging.clone(),
            cached_charging: cached_charging.clone(),
            checkpointer: checkpointer.clone(),
            last_checkpoint_attempt: *last_checkpoint_attempt,
            needs_recovery: *needs_recovery,
            outage_started: *outage_started,
            recovery_durations: recovery_durations.clone(),
            lost_work_gb: *lost_work_gb,
            data_loss_events: *data_loss_events,
            brownouts: *brownouts,
            trace_solar: trace_solar.clone(),
            trace_load: trace_load.clone(),
            trace_stored: trace_stored.clone(),
            trace_pack_voltage: trace_pack_voltage.clone(),
            voltage_stats: *voltage_stats,
            events: events.clone(),
            solar_harvested: *solar_harvested,
            solar_used_load: *solar_used_load,
            solar_used_charge: *solar_used_charge,
            battery_delivered: *battery_delivered,
            served_time: *served_time,
            demand_time: *demand_time,
        }
    }

    /// Current simulated time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.clock.now()
    }

    /// The battery units.
    #[must_use]
    pub fn units(&self) -> &[BatteryUnit] {
        &self.units
    }

    /// The switch matrix.
    #[must_use]
    pub fn matrix(&self) -> &SwitchMatrix {
        &self.matrix
    }

    /// The server rack.
    #[must_use]
    pub fn rack(&self) -> &Rack {
        &self.rack
    }

    /// The workload.
    #[must_use]
    pub fn workload(&self) -> &WorkloadModel {
        &self.workload
    }

    /// The installed controller's name.
    #[must_use]
    pub fn controller_name(&self) -> &'static str {
        self.controller.name()
    }

    /// Recorded events.
    #[must_use]
    pub fn events(&self) -> &EventLog<SystemEvent> {
        &self.events
    }

    /// Solar power trace as replayed (one sample per step).
    #[must_use]
    pub fn trace_solar(&self) -> &Trace {
        &self.trace_solar
    }

    /// Load (rack draw) trace.
    #[must_use]
    pub fn trace_load(&self) -> &Trace {
        &self.trace_load
    }

    /// Total e-Buffer stored energy trace (Wh).
    #[must_use]
    pub fn trace_stored(&self) -> &Trace {
        &self.trace_stored
    }

    /// Mean cabinet open-circuit voltage trace.
    #[must_use]
    pub fn trace_pack_voltage(&self) -> &Trace {
        &self.trace_pack_voltage
    }

    /// Pooled statistics of the pack-voltage trace (Table 6's σ source).
    #[must_use]
    pub fn voltage_stats(&self) -> &RunningStats {
        &self.voltage_stats
    }

    /// Total solar energy harvested so far.
    #[must_use]
    pub fn solar_harvested(&self) -> WattHours {
        self.solar_harvested
    }

    /// Solar energy consumed directly by the load / by charging.
    #[must_use]
    pub fn solar_used(&self) -> (WattHours, WattHours) {
        (self.solar_used_load, self.solar_used_charge)
    }

    /// Energy delivered by the e-Buffer to the load.
    #[must_use]
    pub fn battery_delivered(&self) -> WattHours {
        self.battery_delivered
    }

    /// Fraction of demand-time during which demand was fully served.
    #[must_use]
    pub fn service_availability(&self) -> f64 {
        if self.demand_time.is_zero() {
            return 1.0;
        }
        self.served_time.as_secs() as f64 / self.demand_time.as_secs() as f64
    }

    /// Hours simulated so far.
    #[must_use]
    pub fn elapsed_hours(&self) -> f64 {
        (self.clock.now() - self.started).as_hours().value()
    }

    /// The job checkpointer, when checkpointing is enabled.
    #[must_use]
    pub fn checkpointer(&self) -> Option<&JobCheckpointer> {
        self.checkpointer.as_ref()
    }

    /// Lifetime checkpoint counters (all zero when checkpointing is
    /// disabled).
    #[must_use]
    pub fn checkpoint_counters(&self) -> CheckpointCounters {
        self.checkpointer
            .as_ref()
            .map(|c| c.store.counters())
            .unwrap_or_default()
    }

    /// `true` while job state awaits a restore after an outage.
    #[must_use]
    pub fn needs_recovery(&self) -> bool {
        self.needs_recovery
    }

    /// Crash-lost work replayed or abandoned so far, GB.
    #[must_use]
    pub fn lost_work_gb(&self) -> f64 {
        self.lost_work_gb
    }

    /// Throughput that produced durable value: processed GB minus the
    /// replayed/abandoned volume, so each GB counts once. Plain
    /// throughput counts replayed work twice.
    #[must_use]
    pub fn goodput_gb(&self) -> f64 {
        (self.workload.processed_gb() - self.lost_work_gb).max(0.0)
    }

    /// Unrecoverable data-loss events (durable-checkpoint corruption,
    /// poison-job quarantines).
    #[must_use]
    pub fn data_loss_events(&self) -> u64 {
        self.data_loss_events
    }

    /// Completed outage episodes (shutdown/brownout → serving again with
    /// job state restored), for MTTR.
    #[must_use]
    pub fn recovery_durations(&self) -> &[SimDuration] {
        &self.recovery_durations
    }

    /// Brownouts recorded so far.
    #[must_use]
    pub fn brownout_count(&self) -> usize {
        self.brownouts
    }

    /// What the sense lines read for unit `i` right now.
    fn fresh_view(&self, i: usize) -> UnitView {
        let u = &self.units[i];
        UnitView {
            id: u.id(),
            soc: u.soc(),
            available_fraction: u.available_fraction().value(),
            discharge_throughput: u.discharge_throughput(),
            at_cutoff: u.at_cutoff(SENSE_CURRENT),
            terminal_voltage: u.terminal_voltage(SENSE_CURRENT),
            telemetry_age: SimDuration::ZERO,
        }
    }

    /// Builds the controller-visible observation. Units under an active
    /// stale-telemetry window report their frozen snapshot with a growing
    /// age instead of live data.
    fn observe(&self, solar: Watts) -> SystemObservation {
        let now = self.clock.now();
        let views: Vec<UnitView> = (0..self.units.len())
            .map(|i| match self.stale_windows[i] {
                Some(w) if now < w.until => {
                    let mut frozen = w.frozen;
                    frozen.telemetry_age = now.since(w.since);
                    frozen
                }
                _ => self.fresh_view(i),
            })
            .collect();
        let attachments: Vec<Attachment> = self
            .units
            .iter()
            .map(|u| {
                // Best effort: an untracked unit (impossible today, cheap
                // to tolerate) reads as isolated rather than panicking.
                self.matrix
                    .attachment(u.id())
                    .unwrap_or(Attachment::Isolated)
            })
            .collect();
        let util = self.workload.utilization();
        SystemObservation {
            now: self.clock.now(),
            elapsed_days: self.elapsed_hours() / 24.0,
            solar_power: solar,
            units: views,
            attachments,
            discharge_current: self.last_discharge_current,
            active_vms: self.rack.active_vms(),
            target_vms: self.rack.target_vms(),
            total_vm_slots: self.rack.total_vm_slots(),
            duty: self.rack.duty(),
            rack_demand: self.rack.power_demand(util),
            rack_demand_target: {
                let profile = self.rack.servers()[0].profile();
                let machines = self.rack.target_vms().div_ceil(profile.vm_slots.max(1));
                profile.power_at(util, self.rack.duty().fraction()) * f64::from(machines)
            },
            rack_demand_full: Watts::new(
                self.rack.servers().len() as f64
                    * self.rack.servers()[0].profile().peak_power.value(),
            ),
            pack_voltage: Volts::new(
                self.units
                    .first()
                    .map_or(24.0, |u| u.params().nominal_voltage.value()),
            ),
            pending_gb: self.workload.pending_gb(),
            knob: self.workload.knob(),
            brownouts: self.brownouts,
        }
    }

    fn apply(&mut self, action: ControlAction) {
        if action.emergency_shutdown {
            let now = self.clock.now();
            self.rack.shutdown_all();
            self.events.push(now, SystemEvent::EmergencyShutdown);
            if self.outage_started.is_none() {
                self.outage_started = Some(now);
            }
            // Emergency checkpoint: the orderly wind-down gives the write
            // time to land. A broken checkpoint path on any serving
            // machine means the save cannot happen — the job will fall
            // back to its last durable state on restart.
            let path_broken = self
                .rack
                .servers()
                .iter()
                .any(|s| s.checkpoint_broken() && s.is_on());
            if let Some(c) = &mut self.checkpointer {
                let progress = self.workload.processed_gb();
                if !path_broken {
                    c.store.begin_write(now, c.policy.write_duration, progress);
                }
                self.needs_recovery = true;
            }
        }
        for (id, attachment) in action.attachments {
            // Best effort on two axes: an unknown id is skipped rather
            // than panicking, and a faulted relay yields whatever
            // attachment the hardware could actually reach.
            let _ = self.matrix.attach(id, attachment);
        }
        if let Some(vms) = action.target_vms {
            if !action.emergency_shutdown {
                self.rack.set_target_vms(vms);
            }
        }
        if let Some(duty) = action.duty {
            self.rack.set_duty(duty);
        }
    }

    /// Strikes the system with one fault, immediately.
    ///
    /// Scheduled faults route through here too; the public entry point
    /// exists so tests and chaos harnesses can inject without a schedule.
    pub fn inject_fault(&mut self, kind: FaultKind) {
        let now = self.clock.now();
        self.apply_fault(now, kind);
    }

    /// Forcibly collapses the site's power delivery — the fleet tier's
    /// `SiteBlackout` entry point. Identical to an instantaneous supply
    /// brownout: every server crash-stops with no orderly checkpoint
    /// window, an in-flight checkpoint write is torn, and recovery
    /// (checkpoint restore plus cold boot) must complete before the rack
    /// serves again.
    pub fn force_outage(&mut self) {
        let now = self.clock.now();
        self.rack.force_shutdown_all();
        self.events.push(now, SystemEvent::BrownOut);
        self.brownouts += 1;
        if self.outage_started.is_none() {
            self.outage_started = Some(now);
        }
        if let Some(c) = &mut self.checkpointer {
            if c.store.crash() {
                self.events.push(now, SystemEvent::CheckpointTorn);
            }
            self.needs_recovery = true;
        }
    }

    /// The installed fault schedule.
    #[must_use]
    pub fn fault_schedule(&self) -> &FaultSchedule {
        &self.faults
    }

    fn apply_fault(&mut self, now: SimTime, kind: FaultKind) {
        // Fleet-level faults (site blackouts, WAN partitions, routing
        // flaps, slow sites) are applied by the fleet layer; a single
        // site has nothing to do with them and must not log them either.
        if kind.is_fleet_level() {
            return;
        }
        self.events
            .push(now, SystemEvent::FaultInjected(kind.class()));
        match kind {
            FaultKind::BatteryOpenCircuit { unit } => {
                if let Some(u) = self.units.get_mut(unit) {
                    u.fail_open_circuit();
                }
            }
            FaultKind::BatteryCapacityFade { unit, fraction } => {
                if let Some(u) = self.units.get_mut(unit) {
                    u.apply_capacity_fade(fraction);
                }
            }
            FaultKind::BatteryHighResistance { unit, factor } => {
                if let Some(u) = self.units.get_mut(unit) {
                    u.degrade_resistance(factor);
                }
            }
            FaultKind::RelayStuckOpen { unit, role } => {
                let _ =
                    self.matrix
                        .inject_relay_fault(BatteryId(unit), role, RelayFault::StuckOpen);
            }
            FaultKind::RelayStuckClosed { unit, role } => {
                let _ =
                    self.matrix
                        .inject_relay_fault(BatteryId(unit), role, RelayFault::StuckClosed);
            }
            FaultKind::ChargerDropout { duration } => {
                self.charger_dropout_until = Some(now + duration);
            }
            FaultKind::SensorNoise { sigma, duration } => {
                self.sensor_noise = Some((sigma, now + duration));
            }
            FaultKind::StaleTelemetry { unit, duration } => {
                if unit < self.units.len() {
                    let frozen = self.fresh_view(unit);
                    self.stale_windows[unit] = Some(StaleWindow {
                        since: now,
                        until: now + duration,
                        frozen,
                    });
                }
            }
            FaultKind::ServerCrash { server } => {
                let _ = self.rack.crash_server(server);
            }
            FaultKind::CheckpointWriteFailure { server, duration } => {
                if self.rack.set_checkpoint_broken(server, true) {
                    self.checkpoint_faults.push((server, now + duration));
                }
            }
            FaultKind::CheckpointCorruption { server } => {
                // Silent bit-rot in the durable artifact. The server index
                // scopes the fault to a real machine; the job-level store
                // is shared, so any valid index corrupts it.
                if server < self.rack.servers().len() {
                    if let Some(c) = &mut self.checkpointer {
                        if c.store.corrupt_durable() {
                            self.events.push(now, SystemEvent::CheckpointLost);
                            self.data_loss_events += 1;
                        }
                    }
                }
            }
            FaultKind::TornWrite { server } => {
                // A storage-path interruption mid-write, without the host
                // crashing: the in-flight artifact is torn and discarded.
                if server < self.rack.servers().len() {
                    if let Some(c) = &mut self.checkpointer {
                        if c.store.crash() {
                            self.events.push(now, SystemEvent::CheckpointTorn);
                        }
                    }
                }
            }
            FaultKind::RestartStorm { duration } => {
                let until = now + duration;
                // Overlapping storms extend, never shorten, the window.
                self.restart_storm_until = Some(match self.restart_storm_until {
                    Some(t) if t > until => t,
                    _ => until,
                });
            }
            FaultKind::SiteBlackout { .. }
            | FaultKind::WanPartition { .. }
            | FaultKind::RoutingFlap { .. }
            | FaultKind::SlowSite { .. } => {
                // Unreachable: filtered by the is_fleet_level guard above.
            }
        }
    }

    /// Retires expired fault windows (checkpoint repairs, telemetry
    /// recovery); the time comparisons in `observe`/`step` do the rest.
    fn expire_fault_windows(&mut self, now: SimTime) {
        let mut i = 0;
        while i < self.checkpoint_faults.len() {
            if now >= self.checkpoint_faults[i].1 {
                let (server, _) = self.checkpoint_faults.swap_remove(i);
                let _ = self.rack.set_checkpoint_broken(server, false);
            } else {
                i += 1;
            }
        }
        for window in &mut self.stale_windows {
            if window.is_some_and(|w| now >= w.until) {
                *window = None;
            }
        }
        if self.restart_storm_until.is_some_and(|t| now >= t) {
            self.restart_storm_until = None;
        }
    }

    /// Completes in-flight checkpoint writes and starts periodic ones.
    fn advance_checkpoints(&mut self, now: SimTime) {
        let (completed, interval, write_duration) = match &mut self.checkpointer {
            Some(c) => (
                c.store.step(now),
                c.policy.interval,
                c.policy.write_duration,
            ),
            None => return,
        };
        if completed {
            self.events.push(now, SystemEvent::CheckpointWritten);
        }
        if self.needs_recovery || !self.rack.any_serving() {
            return;
        }
        let due = self
            .last_checkpoint_attempt
            .is_none_or(|t| now.since(t) >= interval);
        if !due {
            return;
        }
        // The attempt is paced regardless of outcome, so a broken
        // checkpoint path is retried next interval, not every step.
        self.last_checkpoint_attempt = Some(now);
        let path_broken = self
            .rack
            .servers()
            .iter()
            .any(|s| s.checkpoint_broken() && s.is_on());
        if path_broken {
            return;
        }
        let progress = self.workload.processed_gb();
        if let Some(c) = &mut self.checkpointer {
            c.store.begin_write(now, write_duration, progress);
        }
    }

    /// Attempts the pending job-state restore once the rack serves again.
    /// Restores can only ever read the *durable* checkpoint — a torn
    /// write was discarded at crash time and is unreachable here.
    fn attempt_restore(&mut self, now: SimTime) {
        if !self.needs_recovery || !self.rack.any_serving() {
            return;
        }
        let Some(c) = &self.checkpointer else {
            self.needs_recovery = false;
            return;
        };
        if !c.backoff.ready(now) {
            return;
        }
        let policy = c.policy;
        let had_durable = c.store.durable().is_some();
        let processed = self.workload.processed_gb();
        let storm = self.restart_storm_until.is_some_and(|t| now < t);
        if storm {
            // The restore attempt fails: back off exponentially, and
            // quarantine the job as poison after too many consecutive
            // failures.
            let outcome = match &mut self.checkpointer {
                Some(c) => c.backoff.record_failure(now),
                None => return,
            };
            if outcome == RestartOutcome::Exhausted {
                // Poison job: the replay is abandoned. Durable progress is
                // kept; the un-checkpointed remainder is lost for good.
                if let Some(c) = &mut self.checkpointer {
                    let durable = c.store.restore();
                    self.lost_work_gb += (processed - durable).max(0.0);
                    c.backoff = policy.restart_backoff();
                }
                self.data_loss_events += 1;
                self.needs_recovery = false;
            }
            return;
        }
        // Restore succeeds: reinstate the durable progress and replay the
        // work done since that snapshot.
        if let Some(c) = &mut self.checkpointer {
            let restored = c.store.restore();
            let lost = (processed - restored).max(0.0);
            self.lost_work_gb += lost;
            c.backoff.record_success();
            if lost > 0.0 {
                self.workload.requeue_gb(now, lost);
            }
        }
        if had_durable {
            self.events.push(now, SystemEvent::CheckpointRestored);
        }
        self.needs_recovery = false;
    }

    /// The solar reading the *controller* sees: the true harvest,
    /// perturbed while a sensor-noise fault window is active. The power
    /// settlement always uses the true value — noise corrupts decisions,
    /// not physics.
    fn observed_solar(&mut self, actual: Watts, now: SimTime) -> Watts {
        match self.sensor_noise {
            Some((sigma, until)) if now < until => {
                let factor = 1.0 + self.sensor_rng.normal(0.0, sigma);
                Watts::new((actual.value() * factor).max(0.0))
            }
            _ => actual,
        }
    }

    /// Advances the system one clock step.
    pub fn step(&mut self) {
        let now = self.clock.now();
        let dt = self.clock.dt();
        let dt_h = dt.as_hours();
        let solar = self.solar.power_at(now);

        // Scheduled faults due this step strike the hardware first, and
        // expired windows (repairs) retire. `has_due` is a non-mutating
        // peek, so the common fault-free step pays one comparison instead
        // of draining and copying an empty slice.
        if self.faults.has_due(now) {
            let due: Vec<FaultEvent> = self.faults.due(now).to_vec();
            for event in due {
                self.apply_fault(now, event.kind);
            }
        }
        self.expire_fault_windows(now);
        self.advance_checkpoints(now);

        // Controller at its period boundary.
        let control_due = match self.last_control {
            None => true,
            Some(t) => now.since(t) >= self.control_period,
        };
        if control_due {
            self.last_control = Some(now);
            let observed = self.observed_solar(solar, now);
            let obs = self.observe(observed);
            let action = self.controller.control(&obs);
            self.apply(action);
        }

        // Bus memberships change only when a relay moves (controller
        // reconfiguration or relay fault); on the matrix's word that
        // nothing moved since last step, reuse the cached lists instead
        // of rescanning the relay network twice per step.
        if self.matrix_cache_generation != Some(self.matrix.generation()) {
            self.cached_discharging = self.matrix.discharging_units();
            self.cached_charging = self.matrix.charging_units();
            self.matrix_cache_generation = Some(self.matrix.generation());
        }
        let discharging_ids = &self.cached_discharging;

        // Power settlement: load first (solar then discharging units).
        // An in-flight checkpoint write draws its storage-path power from
        // the same budget as the servers.
        let util = self.workload.utilization();
        let checkpoint_power = match &self.checkpointer {
            Some(c) if c.store.writing() => c.policy.write_power,
            _ => Watts::ZERO,
        };
        let demand = self.rack.power_demand(util) + checkpoint_power;
        let settlement = {
            let mut refs: Vec<&mut BatteryUnit> = self
                .units
                .iter_mut()
                .filter(|u| discharging_ids.contains(&u.id()))
                .collect();
            self.bus.settle(demand, solar, &mut refs, dt_h)
        };
        let pack_v = self
            .units
            .first()
            .map_or(24.0, |u| u.params().nominal_voltage.value());
        self.last_discharge_current = Amps::new(settlement.battery_used.value() / pack_v);

        // Brown-out: a materially unservable demand (beyond what the PSU
        // ride-through tolerates) forces an immediate checkpoint. Small
        // transient mismatches only degrade that step's progress.
        let shortfall_frac = if demand.value() > 1.0 {
            settlement.shortfall / demand
        } else {
            0.0
        };
        let browned_out = shortfall_frac > 0.05;
        if browned_out {
            // The supply actually collapsed: machines crash off instantly
            // (no orderly checkpoint window) and must cold-boot later.
            self.rack.force_shutdown_all();
            self.events.push(now, SystemEvent::BrownOut);
            self.brownouts += 1;
            if self.outage_started.is_none() {
                self.outage_started = Some(now);
            }
            if let Some(c) = &mut self.checkpointer {
                // A write caught mid-flight is torn and discarded; the
                // durable checkpoint (if any) survives the crash.
                if c.store.crash() {
                    self.events.push(now, SystemEvent::CheckpointTorn);
                }
                self.needs_recovery = true;
            }
        }
        // Cutoff trips while discharging.
        for id in discharging_ids {
            let unit = &self.units[id.0];
            if unit.at_cutoff(Amps::new(10.0)) {
                self.events.push(now, SystemEvent::CutoffTrip(*id));
            }
        }

        // Charging from what solar remains. A charger dropout disconnects
        // the PV input for its window: nothing charges, and charge-bus
        // units simply rest through it.
        let solar_left = (solar - settlement.solar_used).max(Watts::ZERO);
        let charger_down = self.charger_dropout_until.is_some_and(|t| now < t);
        let charging_ids: &[BatteryId] = if charger_down {
            &[]
        } else {
            &self.cached_charging
        };
        let charge_step = {
            let mut refs: Vec<&mut BatteryUnit> = self
                .units
                .iter_mut()
                .filter(|u| charging_ids.contains(&u.id()))
                .collect();
            self.charger.charge(&mut refs, solar_left, dt_h)
        };

        // Isolated units rest (recovery effect continues).
        for u in self.units.iter_mut() {
            let attached = discharging_ids.contains(&u.id()) || charging_ids.contains(&u.id());
            if !attached {
                u.rest(dt_h);
            }
        }

        // Rack advances; workload progresses when the demand was served.
        let draw = self.rack.step(dt, util);
        // Recovery: restore job state once machines serve again, then
        // close the outage episode (MTTR measures shutdown → restored).
        self.attempt_restore(now);
        if self.outage_started.is_some() && self.rack.any_serving() && !self.needs_recovery {
            if let Some(start) = self.outage_started.take() {
                self.recovery_durations.push(now.since(start));
                self.events.push(now, SystemEvent::Recovered);
            }
        }
        let capacity = if browned_out || self.needs_recovery {
            0.0
        } else {
            // Tolerated transient shortfalls degrade progress linearly.
            self.workload
                .capacity_gb_per_hour(self.rack.active_vms(), self.rack.duty().fraction())
                * (1.0 - shortfall_frac / 0.05).clamp(0.0, 1.0)
        };
        self.workload.step(now, dt, capacity);

        // Accounting.
        self.solar_harvested += solar * dt_h;
        self.solar_used_load += settlement.solar_used * dt_h;
        self.solar_used_charge += charge_step.drawn * dt_h;
        self.battery_delivered += settlement.battery_used * dt_h;
        if demand.value() > 1.0 {
            self.demand_time += dt;
            if !browned_out {
                self.served_time += dt;
            }
        }
        self.trace_solar.record(now, solar.value());
        self.trace_load.record(now, draw.value());
        let stored: WattHours = self.units.iter().map(BatteryUnit::stored_energy).sum();
        self.trace_stored.record(now, stored.value());
        let mean_v = self
            .units
            .iter()
            .map(|u| u.open_circuit_voltage().value())
            .sum::<f64>()
            / self.units.len().max(1) as f64;
        self.trace_pack_voltage.record(now, mean_v);
        self.voltage_stats.push(mean_v);

        self.clock.tick();
    }

    /// Runs until the given instant.
    pub fn run_until(&mut self, end: SimTime) {
        // Reserve the trace buffers for the whole span up front so the
        // per-step `record` calls never reallocate mid-run.
        let now = self.clock.now();
        if end > now {
            let dt_s = self.clock.dt().as_secs().max(1);
            let steps = usize::try_from(end.since(now).as_secs() / dt_s + 1).unwrap_or(usize::MAX);
            self.trace_solar.reserve(steps);
            self.trace_load.reserve(steps);
            self.trace_stored.reserve(steps);
            self.trace_pack_voltage.reserve(steps);
        }
        while self.clock.now() < end {
            self.step();
        }
    }

    /// Total e-Buffer discharge throughput so far.
    #[must_use]
    pub fn total_discharge_throughput(&self) -> AmpHours {
        self.units
            .iter()
            .map(BatteryUnit::discharge_throughput)
            .sum()
    }

    /// Offers `gb` of externally ingested work to the workload (service
    /// mode's admission path). Batch work joins the job queue; stream
    /// work adds backlog. Offering is unconditional — admission control
    /// (shedding, backpressure) happens *before* this call.
    pub fn offer_work(&mut self, gb: f64) {
        if gb > 0.0 {
            let now = self.clock.now();
            self.workload.requeue_gb(now, gb);
        }
    }

    /// Graceful-drain flush: synchronously writes a final durable
    /// checkpoint capturing current progress, superseding any in-flight
    /// write (a drain waits for the artifact — nothing tears). Returns
    /// `false` when checkpointing is disabled.
    pub fn flush_checkpoint(&mut self) -> bool {
        let now = self.clock.now();
        let progress = self.workload.processed_gb();
        match &mut self.checkpointer {
            Some(c) => {
                c.flush(now, progress);
                self.events.push(now, SystemEvent::CheckpointWritten);
                true
            }
            None => false,
        }
    }
}

/// Builder for [`InSituSystem`].
pub struct SystemBuilder {
    solar: SolarTrace,
    controller: Box<dyn PowerController>,
    unit_params: BatteryParams,
    unit_count: usize,
    initial_soc: Soc,
    rack: Rack,
    workload: WorkloadModel,
    control_period: SimDuration,
    dt: SimDuration,
    start: SimTime,
    faults: FaultSchedule,
    checkpoint: Option<CheckpointPolicy>,
}

impl SystemBuilder {
    /// Creates a builder with the prototype defaults: three 24 V cabinets
    /// at 60 % charge, the 4-machine ProLiant rack, the seismic workload,
    /// 1-minute control period and 10-second simulation step.
    #[must_use]
    pub fn new(solar: SolarTrace, controller: Box<dyn PowerController>) -> Self {
        Self {
            solar,
            controller,
            unit_params: BatteryParams::cabinet_24v(),
            unit_count: 3,
            initial_soc: Soc::saturating(0.6),
            rack: Rack::prototype(),
            workload: WorkloadModel::seismic(),
            control_period: SimDuration::from_minutes(1),
            dt: SimDuration::from_secs(10),
            start: SimTime::ZERO,
            faults: FaultSchedule::empty(),
            checkpoint: None,
        }
    }

    /// Sets the number of battery cabinets.
    ///
    /// # Panics
    ///
    /// Panics if `count` is zero. Service paths use
    /// [`SystemBuilder::try_unit_count`] instead.
    #[must_use]
    pub fn unit_count(mut self, count: usize) -> Self {
        assert!(count > 0, "at least one battery unit required");
        self.unit_count = count;
        self
    }

    /// Sets the number of battery cabinets, rejecting zero.
    ///
    /// # Errors
    ///
    /// Returns [`crate::config::ConfigError::ZeroUnits`] when `count` is
    /// zero.
    pub fn try_unit_count(mut self, count: usize) -> Result<Self, crate::config::ConfigError> {
        if count == 0 {
            return Err(crate::config::ConfigError::ZeroUnits);
        }
        self.unit_count = count;
        Ok(self)
    }

    /// Sets the per-cabinet battery parameters.
    #[must_use]
    pub fn unit_params(mut self, params: BatteryParams) -> Self {
        self.unit_params = params;
        self
    }

    /// Sets the initial (rested) state of charge of every cabinet.
    #[must_use]
    pub fn initial_soc(mut self, soc: Soc) -> Self {
        self.initial_soc = soc;
        self
    }

    /// Sets the server rack.
    #[must_use]
    pub fn rack(mut self, rack: Rack) -> Self {
        self.rack = rack;
        self
    }

    /// Sets the workload.
    #[must_use]
    pub fn workload(mut self, workload: WorkloadModel) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the controller invocation period.
    #[must_use]
    pub fn control_period(mut self, period: SimDuration) -> Self {
        self.control_period = period;
        self
    }

    /// Sets the simulation step.
    #[must_use]
    pub fn time_step(mut self, dt: SimDuration) -> Self {
        self.dt = dt;
        self
    }

    /// Sets the starting instant (e.g. midnight of day 0).
    #[must_use]
    pub fn start_at(mut self, start: SimTime) -> Self {
        self.start = start;
        self
    }

    /// Installs a fault schedule to replay during the run. The schedule's
    /// seed also derives the sensor-noise stream, so a `(seed, schedule)`
    /// pair fully determines a faulty run.
    #[must_use]
    pub fn fault_schedule(mut self, faults: FaultSchedule) -> Self {
        self.faults = faults;
        self
    }

    /// Enables job-level checkpointing under the given policy. Off by
    /// default: without it the system keeps the seed behavior (no write
    /// power draw, no replay, no recovery gating).
    #[must_use]
    pub fn checkpoints(mut self, policy: CheckpointPolicy) -> Self {
        self.checkpoint = Some(policy);
        self
    }

    /// Assembles the system.
    ///
    /// # Panics
    ///
    /// Panics if the configured battery parameters fail
    /// [`BatteryParams::validate`] — the builder accepts arbitrary
    /// parameter sets, so validation happens here, once, before any
    /// unit is constructed.
    #[must_use]
    pub fn build(self) -> InSituSystem {
        let units: Vec<BatteryUnit> = (0..self.unit_count)
            .map(|i| BatteryUnit::with_soc(BatteryId(i), self.unit_params, self.initial_soc))
            .collect();
        let sensor_rng = SimRng::seed(self.faults.seed()).fork("sensor-noise");
        InSituSystem {
            clock: SimClock::starting_at(self.start, self.dt),
            solar: self.solar,
            matrix: SwitchMatrix::new(units.len()),
            stale_windows: vec![None; units.len()],
            units,
            charger: ChargeController::prototype(),
            bus: LoadBus::prototype(),
            rack: self.rack,
            workload: self.workload,
            controller: self.controller,
            control_period: self.control_period,
            started: self.start,
            last_control: None,
            last_discharge_current: Amps::ZERO,
            faults: self.faults,
            sensor_rng,
            sensor_noise: None,
            charger_dropout_until: None,
            checkpoint_faults: Vec::new(),
            restart_storm_until: None,
            matrix_cache_generation: None,
            cached_discharging: Vec::new(),
            cached_charging: Vec::new(),
            checkpointer: self.checkpoint.map(JobCheckpointer::new),
            last_checkpoint_attempt: None,
            needs_recovery: false,
            outage_started: None,
            recovery_durations: Vec::new(),
            lost_work_gb: 0.0,
            data_loss_events: 0,
            brownouts: 0,
            trace_solar: Trace::new("solar W"),
            trace_load: Trace::new("load W"),
            trace_stored: Trace::new("stored Wh"),
            trace_pack_voltage: Trace::new("pack V"),
            voltage_stats: RunningStats::new(),
            events: EventLog::new(),
            solar_harvested: WattHours::ZERO,
            solar_used_load: WattHours::ZERO,
            solar_used_charge: WattHours::ZERO,
            battery_delivered: WattHours::ZERO,
            served_time: SimDuration::ZERO,
            demand_time: SimDuration::ZERO,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::{BaselineController, InsureController, NoOptController};
    use crate::engine::lineup;
    use crate::metrics::RunMetrics;
    use ins_solar::trace::high_generation_day;

    fn day_system(controller: Box<dyn PowerController>) -> InSituSystem {
        InSituSystem::builder(high_generation_day(42), controller)
            .time_step(SimDuration::from_secs(30))
            .build()
    }

    fn dropout_at(secs: u64, minutes: u64) -> FaultEvent {
        FaultEvent {
            at: SimTime::from_secs(secs),
            kind: FaultKind::ChargerDropout {
                duration: SimDuration::from_minutes(minutes),
            },
        }
    }

    #[test]
    fn forked_run_is_identical_to_its_scratch_run() {
        let schedule = || {
            FaultSchedule::from_events(
                5,
                vec![dropout_at(7 * 3600, 30), dropout_at(12 * 3600 + 30, 45)],
            )
        };
        let end = SimTime::from_hms(23, 59, 30);
        for (name, make) in lineup() {
            let policy = || make().unwrap_or_else(|e| panic!("{name}: {e}"));
            // From scratch: the whole day under the cell's schedule.
            let mut scratch = InSituSystem::builder(high_generation_day(42), policy())
                .time_step(SimDuration::from_secs(30))
                .fault_schedule(schedule())
                .build();
            scratch.run_until(end);
            // Incremental: fault-free shared prefix to 06:00, snapshot,
            // fork under the same schedule (first event 07:00 > fork
            // point).
            let mut prefix = day_system(policy());
            prefix.run_until(SimTime::from_hms(6, 0, 0));
            let snap = prefix.snapshot().expect("registered policies fork");
            let mut forked = InSituSystem::fork_from(&snap, schedule());
            forked.run_until(end);
            // Mutating the prefix afterwards must not disturb the fork's
            // source (copy-on-write isolation).
            prefix.run_until(SimTime::from_hms(8, 0, 0));
            assert_eq!(
                RunMetrics::collect(&scratch),
                RunMetrics::collect(&forked),
                "{name}"
            );
            assert_eq!(scratch.trace_solar(), forked.trace_solar(), "{name}");
            assert_eq!(scratch.trace_load(), forked.trace_load(), "{name}");
            assert_eq!(scratch.trace_stored(), forked.trace_stored(), "{name}");
            assert_eq!(
                scratch.trace_pack_voltage(),
                forked.trace_pack_voltage(),
                "{name}"
            );
            assert_eq!(scratch.events().len(), forked.events().len(), "{name}");
            assert_eq!(
                scratch
                    .events()
                    .count(|e| matches!(e, SystemEvent::FaultInjected(_))),
                forked
                    .events()
                    .count(|e| matches!(e, SystemEvent::FaultInjected(_))),
                "{name}"
            );
            assert_eq!(scratch.now(), forked.now(), "{name}");
        }
    }

    #[test]
    fn pre_fork_events_never_refire_in_forked_cells() {
        // Regression: a schedule carrying an event *before* the fork
        // point (a planner bug, or a hand-built schedule) must see that
        // event expired, not delivered late.
        let mut prefix = day_system(Box::new(InsureController::default()));
        prefix.run_until(SimTime::from_hms(6, 0, 0));
        let snap = prefix.snapshot().expect("stock controllers fork");
        let schedule =
            FaultSchedule::from_events(3, vec![dropout_at(3600, 30), dropout_at(8 * 3600, 30)]);
        let mut forked = InSituSystem::fork_from(&snap, schedule);
        forked.run_until(SimTime::from_hms(23, 59, 30));
        let injected = forked
            .events()
            .count(|e| matches!(e, SystemEvent::FaultInjected(_)));
        assert_eq!(injected, 1, "only the post-fork event may fire");
    }

    /// Wraps state it cannot copy, so it keeps the default
    /// `fork_controller() -> None`.
    struct Unforkable;

    impl PowerController for Unforkable {
        fn name(&self) -> &'static str {
            "unforkable"
        }

        fn control(&mut self, _obs: &SystemObservation) -> ControlAction {
            ControlAction::default()
        }
    }

    #[test]
    fn unforkable_controllers_decline_snapshotting() {
        let sys = day_system(Box::new(Unforkable));
        let err = sys.snapshot().expect_err("the controller cannot fork");
        assert_eq!(err, SnapshotError::ControllerNotForkable("unforkable"));
        assert!(err.to_string().contains("snapshot forking"));
    }

    #[test]
    fn insure_runs_a_full_day_and_processes_data() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(23, 59, 0));
        assert!(
            sys.workload().processed_gb() > 20.0,
            "processed {} GB",
            sys.workload().processed_gb()
        );
        assert!(sys.solar_harvested().kilowatt_hours() > 8.0);
        assert!(sys.rack().total_energy().value() > 0.0);
    }

    #[test]
    fn all_controllers_survive_a_day() {
        for make in [
            || Box::new(InsureController::default()) as Box<dyn PowerController>,
            || Box::new(BaselineController::new()) as Box<dyn PowerController>,
            || Box::new(NoOptController::new()) as Box<dyn PowerController>,
        ] {
            let mut sys = day_system(make());
            sys.run_until(SimTime::from_hms(23, 59, 0));
            // Physical sanity regardless of policy quality.
            for u in sys.units() {
                assert!((0.0..=1.0).contains(&u.soc().value()));
            }
            let (load, charge) = sys.solar_used();
            assert!(load + charge <= sys.solar_harvested() + WattHours::new(1.0));
        }
    }

    #[test]
    fn energy_conservation_within_losses() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(23, 59, 0));
        // Rack energy must not exceed what solar + battery delivered
        // (conversion always loses, never creates).
        let delivered = sys.solar_used().0 + sys.battery_delivered();
        assert!(
            sys.rack().total_energy() <= delivered + WattHours::new(1.0),
            "rack {} Wh vs delivered {} Wh",
            sys.rack().total_energy().value(),
            delivered.value()
        );
    }

    #[test]
    fn insure_keeps_voltage_steadier_than_noopt() {
        let mut insure = day_system(Box::new(InsureController::default()));
        insure.run_until(SimTime::from_hms(23, 59, 0));
        let mut noopt = day_system(Box::new(NoOptController::new()));
        noopt.run_until(SimTime::from_hms(23, 59, 0));
        assert!(
            insure.voltage_stats().population_std_dev()
                <= noopt.voltage_stats().population_std_dev() * 1.1,
            "insure σ {} vs noopt σ {}",
            insure.voltage_stats().population_std_dev(),
            noopt.voltage_stats().population_std_dev()
        );
    }

    #[test]
    fn traces_cover_the_run() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(6, 0, 0));
        let expected = 6 * 3600 / 30;
        assert_eq!(sys.trace_solar().len(), expected);
        assert_eq!(sys.trace_load().len(), expected);
        assert_eq!(sys.trace_stored().len(), expected);
        assert_eq!(sys.trace_pack_voltage().len(), expected);
        assert!((sys.elapsed_hours() - 6.0).abs() < 0.01);
    }

    #[test]
    fn builder_settings_apply() {
        let sys = InSituSystem::builder(
            high_generation_day(1),
            Box::new(InsureController::default()),
        )
        .unit_count(6)
        .initial_soc(Soc::new(0.4))
        .workload(WorkloadModel::video())
        .build();
        assert_eq!(sys.units().len(), 6);
        assert!((sys.units()[0].soc().value() - 0.4).abs() < 1e-9);
        assert!(matches!(sys.workload(), WorkloadModel::Stream { .. }));
    }

    #[test]
    fn scheduled_faults_fire_and_are_logged() {
        use ins_sim::fault::{FaultEvent, FaultKind, FaultSchedule};
        let schedule = FaultSchedule::from_events(
            7,
            vec![
                FaultEvent {
                    at: SimTime::from_hms(1, 0, 0),
                    kind: FaultKind::BatteryOpenCircuit { unit: 1 },
                },
                FaultEvent {
                    // Midday: the server is actually running, so the
                    // crash lands (crashing an off machine is a no-op).
                    at: SimTime::from_hms(12, 0, 0),
                    kind: FaultKind::ServerCrash { server: 0 },
                },
            ],
        );
        let mut sys = InSituSystem::builder(
            high_generation_day(42),
            Box::new(InsureController::default()),
        )
        .time_step(SimDuration::from_secs(30))
        .fault_schedule(schedule)
        .build();
        sys.run_until(SimTime::from_hms(13, 0, 0));
        assert!(sys.units()[1].is_failed());
        assert_eq!(sys.rack().total_crashes(), 1);
        let classes: Vec<FaultClass> = sys
            .events()
            .entries()
            .iter()
            .filter_map(|e| match e.event {
                SystemEvent::FaultInjected(c) => Some(c),
                _ => None,
            })
            .collect();
        assert_eq!(
            classes,
            vec![FaultClass::BatteryOpenCircuit, FaultClass::ServerCrash]
        );
        assert_eq!(sys.fault_schedule().remaining(), 0);
    }

    #[test]
    fn failed_unit_degrades_throughput_but_never_correctness() {
        // Identical runs except one loses a battery unit at 10:00; the
        // faulty run must still satisfy every physical invariant and can
        // only do less work, not more (beyond solver noise).
        let run = |fail: bool| {
            let mut sys = day_system(Box::new(InsureController::default()));
            sys.run_until(SimTime::from_hms(10, 0, 0));
            if fail {
                sys.inject_fault(ins_sim::fault::FaultKind::BatteryOpenCircuit { unit: 0 });
            }
            sys.run_until(SimTime::from_hms(23, 59, 0));
            for u in sys.units() {
                assert!((0.0..=1.0).contains(&u.soc().value()));
            }
            sys.workload().processed_gb()
        };
        let healthy = run(false);
        let faulty = run(true);
        assert!(faulty > 0.0, "faulty system still makes progress");
        assert!(
            faulty <= healthy * 1.05,
            "losing a unit cannot add throughput: {faulty} vs {healthy}"
        );
    }

    #[test]
    fn charger_dropout_pauses_charging_for_its_window() {
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(11, 0, 0));
        let before = sys.solar_used().1;
        sys.inject_fault(ins_sim::fault::FaultKind::ChargerDropout {
            duration: SimDuration::from_hours(1),
        });
        sys.run_until(SimTime::from_hms(12, 0, 0));
        let during = sys.solar_used().1 - before;
        assert!(
            during.value() < 1e-9,
            "charged {} Wh during a charger dropout",
            during.value()
        );
        // After the window the charger recovers.
        sys.run_until(SimTime::from_hms(14, 0, 0));
        assert!(sys.solar_used().1 > before);
    }

    #[test]
    fn stale_telemetry_freezes_the_view_then_recovers() {
        use ins_sim::fault::FaultKind;
        let mut sys = day_system(Box::new(InsureController::default()));
        sys.run_until(SimTime::from_hms(9, 0, 0));
        sys.inject_fault(FaultKind::StaleTelemetry {
            unit: 0,
            duration: SimDuration::from_minutes(10),
        });
        sys.run_until(SimTime::from_hms(9, 5, 0));
        let obs = sys.observe(Watts::ZERO);
        assert!(
            obs.units[0].telemetry_age >= SimDuration::from_minutes(4),
            "age {:?}",
            obs.units[0].telemetry_age
        );
        assert_eq!(obs.units[1].telemetry_age, SimDuration::ZERO);
        sys.run_until(SimTime::from_hms(9, 30, 0));
        let obs = sys.observe(Watts::ZERO);
        assert_eq!(obs.units[0].telemetry_age, SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "at least one battery unit required")]
    fn builder_rejects_zero_units() {
        let _ = InSituSystem::builder(
            high_generation_day(1),
            Box::new(InsureController::default()),
        )
        .unit_count(0);
    }
}
