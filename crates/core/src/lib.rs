//! NecoFuzz — fuzzing nested virtualization via fuzz-harness VMs.
//!
//! This crate is the paper's primary contribution (Ishii, Fukai,
//! Shinagawa — EuroSys 2026): a fuzzing framework that synthesizes
//! complete **fuzz-harness VMs** whose internal states sit near the
//! boundary between valid and invalid, to exercise the nested
//! virtualization logic of L0 hypervisors.
//!
//! The VM generator has three components (paper §3.2):
//!
//! - [`harness::ExecutionHarness`] — template-driven initialization and
//!   exit-triggering runtime phases;
//! - [`validator::VmStateValidator`] — Bochs-derived rounding to valid
//!   states, physical-CPU-oracle self-correction, and selective bit
//!   invalidation;
//! - [`configurator::VcpuConfigurator`] — vCPU feature bit-array
//!   exploration through per-hypervisor adapters.
//!
//! An [`agent::Agent`] coordinates the AFL++-style engine (`nf-fuzz`),
//! the harness VM, and the target hypervisor (`nf-hv`); its hot path
//! runs on the [`engine::ExecutionEngine`], which resets the guest of
//! the active hypervisor instance instead of rebooting per iteration
//! and builds a fresh instance only when the vCPU config changes
//! (paper §3.2 — the fuzz-harness VM exists to avoid guest-OS
//! reboots). [`campaign::run_campaign`] reproduces one of the paper's
//! virtual-time experiments, and the [`orchestrator`] fans a whole
//! experiment grid out over a worker pool.
//!
//! # Examples
//!
//! Plan a small campaign grid and run it in parallel — results come
//! back in plan order, identical to a serial run:
//!
//! ```
//! use necofuzz::campaign::CampaignConfig;
//! use necofuzz::orchestrator::{Backend, CampaignExecutor, CampaignPlan};
//! use nf_x86::CpuVendor;
//!
//! let base = CampaignConfig::necofuzz(CpuVendor::Intel, 1, 0).with_execs_per_hour(50);
//! let plan = CampaignPlan::new(base)
//!     .backend(Backend::named("vkvm").expect("vkvm is a known backend"))
//!     .seeds(0..2);
//!
//! let results = CampaignExecutor::new().jobs(2).run(&plan);
//! assert_eq!(results.len(), 2);
//! assert!(results.iter().all(|r| r.final_coverage > 0.2));
//! ```
//!
//! A single campaign without the orchestrator:
//!
//! ```
//! use necofuzz::campaign::{run_campaign, CampaignConfig};
//! use nf_hv::Vkvm;
//! use nf_x86::CpuVendor;
//!
//! let cfg = CampaignConfig::necofuzz(CpuVendor::Intel, 1, 0).with_execs_per_hour(50);
//! let result = run_campaign(Box::new(|c| Box::new(Vkvm::new(c))), &cfg);
//! assert!(result.final_coverage > 0.2);
//! ```

pub mod agent;
pub mod campaign;
pub mod checkpoint;
pub mod configurator;
pub mod differential;
pub mod engine;
pub mod harness;
pub mod input;
pub mod orchestrator;
pub mod triage;
pub mod validator;

pub use agent::{Agent, BugFind, ComponentMask};
pub use campaign::{
    run_campaign, run_campaign_group, Campaign, CampaignConfig, CampaignResult, FaultCounters,
    HealthAlarms, HourSample, PrefixStoreMode, EXECS_PER_HOUR, PLATEAU_ALARM_HOURS,
};
pub use checkpoint::{read_checkpoint, write_checkpoint, CampaignCheckpoint, FindRecord};
pub use configurator::{HvAdapter, KvmAdapter, VboxAdapter, VcpuConfigurator, XenAdapter};
pub use differential::{
    allowed_by, backend_factory, check_backend, diff_observations, parse_divergence_pair,
    AllowRule, DifferentialRunner, DivergenceSite, DivergenceStats, ExecObservation, ObsResult,
    OracleMode, ALLOWLIST, SEEDED_HLT_BACKEND,
};
pub use engine::{EngineMode, EngineStats, ExecutionEngine};
pub use harness::{
    ExecEvent, ExecObserver, ExecPhase, ExecutionHarness, InitPlan, InitStep, NopObserver,
};
pub use input::{InputLayout, InputView, SectionSpan};
pub use nf_fuzz::{Corpus, CorpusDelta, MutationStrategy};
pub use orchestrator::{
    default_jobs, Backend, CampaignExecutor, CampaignJob, CampaignPlan, Progress, SharedFactory,
    SyncGroup, Task, MAX_TASK_RESTARTS,
};
pub use triage::{minimize_input, CrashTriage, ReplayOracle};
pub use validator::{Correction, OracleVerdict, VmStateValidator};
