//! `csi-serve` — campaign-as-a-service for the CSI cross-testing tool.
//!
//! The in-process [`Campaign`](csi_test::Campaign) builder runs one
//! campaign for one caller. This crate turns the same API surface into a
//! long-running multi-tenant daemon: a [`CsiServer`] listens on TCP,
//! speaks newline-delimited JSON ([`protocol`]), keeps a pool of warm
//! deployments, and runs concurrent campaigns on a worker pool scheduled
//! fairly across tenants ([`sched`]), each tenant confined to its own
//! metastore database and HDFS subtree on the shared control plane
//! ([`tenant`]).
//!
//! The request body is the serializable
//! [`CampaignSpec`](csi_test::CampaignSpec) — the very struct the
//! builder wraps — so the wire surface and the in-process surface cannot
//! drift, and a served campaign's report is byte-identical to running
//! the same spec locally. Online detections stream back as they are
//! recorded, before the final report, via
//! [`DetectionTap`](csi_core::detect::DetectionTap).

pub mod client;
pub mod protocol;
pub mod sched;
pub mod server;
pub mod tenant;

pub use client::{run_specs, ServeClient, TenantOutcome};
pub use protocol::{valid_tenant_name, CampaignRequest, Frame, RejectReason, MAX_TENANT_LEN};
pub use sched::{Admission, FairScheduler};
pub use server::{CsiServer, ServeConfig};
pub use tenant::TenantRegistry;
