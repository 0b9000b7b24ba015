//! Per-tenant namespaces on a shared control-plane substrate.
//!
//! The daemon keeps one [`Metastore`] and one [`MiniHdfs`] as its
//! control plane, shared by every tenant but partitioned by name:
//!
//! - tenant `t` owns metastore database `tenant_t` and nothing else;
//! - tenant `t` owns the HDFS subtree `/tenants/t` and nothing else.
//!
//! [`TenantRegistry::register`] carves both out on first contact and
//! journals each submitted spec under the subtree;
//! [`TenantRegistry::record_report`] writes the finished report and its
//! FNV-1a digest next to it. [`TenantRegistry::evict`] tears the whole
//! namespace down (tables dropped, subtree deleted, blocks vacuumed), so
//! a departed tenant leaves no residue for the next one to observe —
//! the isolation half of the multi-tenant story, with the scheduling
//! half in [`crate::sched`].
//!
//! Campaign *execution* state never lives here: each campaign runs in
//! its own pooled [`Deployment`](csi_test::exec) with a private
//! metastore and filesystem. The registry is strictly the durable
//! per-tenant record of what was asked and what was answered.

use csi_core::hash::fnv1a;
use minihdfs::{HdfsPath, MiniHdfs};
use minihive::metastore::{lock_warehouse, Metastore};
use parking_lot::Mutex;

/// The shared control-plane substrate, partitioned per tenant.
pub struct TenantRegistry {
    metastore: Mutex<Metastore>,
    fs: Mutex<MiniHdfs>,
}

impl Default for TenantRegistry {
    fn default() -> TenantRegistry {
        TenantRegistry::new()
    }
}

impl TenantRegistry {
    /// An empty registry: fresh metastore, fresh filesystem with a bare
    /// `/tenants` root. The filesystem gets a small datanode set so it
    /// is out of safe mode and writable from the start.
    pub fn new() -> TenantRegistry {
        let mut fs = MiniHdfs::with_datanodes(3);
        fs.mkdirs(&HdfsPath::parse("/tenants").expect("static path"))
            .expect("mkdirs /tenants");
        TenantRegistry {
            metastore: Mutex::new(Metastore::new()),
            fs: Mutex::new(fs),
        }
    }

    /// The metastore database owned by `tenant`.
    pub fn database(tenant: &str) -> String {
        format!("tenant_{tenant}")
    }

    /// The HDFS subtree owned by `tenant`.
    pub fn subtree(tenant: &str) -> HdfsPath {
        HdfsPath::parse("/tenants")
            .expect("static path")
            .join(tenant)
    }

    /// Ensures the tenant's namespace exists and journals one submitted
    /// spec (as JSON) under it, returning the journal sequence number of
    /// this submission. Registration is idempotent: the namespace is
    /// created on first contact and reused afterwards.
    pub fn register(&self, tenant: &str, spec_json: &str) -> Result<u64, String> {
        self.metastore
            .lock()
            .create_database(&TenantRegistry::database(tenant));
        let subtree = TenantRegistry::subtree(tenant);
        let mut fs = self.fs.lock();
        fs.mkdirs(&subtree).map_err(|e| e.to_string())?;
        let seq = fs
            .list_status(&subtree)
            .map_err(|e| e.to_string())?
            .iter()
            .filter(|s| {
                s.path
                    .name()
                    .is_some_and(|n| n.starts_with("spec-") && n.ends_with(".json"))
            })
            .count() as u64;
        fs.create(
            &subtree.join(&format!("spec-{seq:06}.json")),
            spec_json.as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        Ok(seq)
    }

    /// Writes a finished report (and its digest) for submission `seq`
    /// into the tenant's subtree.
    pub fn record_report(&self, tenant: &str, seq: u64, report_json: &str) -> Result<(), String> {
        let subtree = TenantRegistry::subtree(tenant);
        let mut fs = self.fs.lock();
        fs.create(
            &subtree.join(&format!("report-{seq:06}.json")),
            report_json.as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        fs.create(
            &subtree.join(&format!("report-{seq:06}.digest")),
            format!("{:016x}", fnv1a(report_json.as_bytes())).as_bytes(),
        )
        .map_err(|e| e.to_string())?;
        Ok(())
    }

    /// The recorded digest of submission `seq`, if a report was written.
    pub fn digest(&self, tenant: &str, seq: u64) -> Option<String> {
        let path = TenantRegistry::subtree(tenant).join(&format!("report-{seq:06}.digest"));
        let bytes = self.fs.lock().read(&path).ok()?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    /// Tenants with a live namespace, in name order.
    pub fn tenants(&self) -> Vec<String> {
        self.fs
            .lock()
            .list_status(&HdfsPath::parse("/tenants").expect("static path"))
            .map(|entries| {
                entries
                    .iter()
                    .filter(|s| s.is_dir)
                    .filter_map(|s| s.path.name().map(str::to_string))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Journaled submissions for `tenant` (spec files in its subtree).
    pub fn submissions(&self, tenant: &str) -> usize {
        self.fs
            .lock()
            .list_status(&TenantRegistry::subtree(tenant))
            .map(|entries| {
                entries
                    .iter()
                    .filter(|s| s.path.name().is_some_and(|n| n.starts_with("spec-")))
                    .count()
            })
            .unwrap_or(0)
    }

    /// Tears down the tenant's namespace: every table in its database
    /// dropped, its subtree deleted recursively, freed blocks vacuumed.
    pub fn evict(&self, tenant: &str) -> Result<(), String> {
        let db = TenantRegistry::database(tenant);
        let (mut fs, mut metastore) = lock_warehouse(&self.fs, &self.metastore);
        let tables: Vec<String> = metastore
            .list_tables(&db)
            .map(|names| names.into_iter().map(str::to_string).collect())
            .unwrap_or_default();
        for table in tables {
            metastore
                .drop_table(&db, &table, false, &mut fs)
                .map_err(|e| e.to_string())?;
        }
        drop(metastore);
        let subtree = TenantRegistry::subtree(tenant);
        if fs.exists(&subtree) {
            fs.delete(&subtree, true).map_err(|e| e.to_string())?;
        }
        fs.vacuum();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespaces_are_carved_per_tenant_and_isolated() {
        let registry = TenantRegistry::new();
        registry
            .register("alpha", "{\"spec\":1}")
            .expect("register");
        registry.register("beta", "{\"spec\":2}").expect("register");
        registry
            .register("alpha", "{\"spec\":3}")
            .expect("register");
        assert_eq!(registry.tenants(), ["alpha", "beta"]);
        assert_eq!(registry.submissions("alpha"), 2);
        assert_eq!(registry.submissions("beta"), 1);
        assert_eq!(registry.submissions("nobody"), 0);
    }

    #[test]
    fn reports_record_a_stable_digest_per_submission() {
        let registry = TenantRegistry::new();
        let seq = registry.register("alpha", "{}").expect("register");
        registry
            .record_report("alpha", seq, "{\"report\":true}")
            .expect("record");
        let digest = registry.digest("alpha", seq).expect("digest written");
        assert_eq!(
            digest,
            format!("{:016x}", fnv1a(b"{\"report\":true}")),
            "digest is the FNV-1a of the report bytes"
        );
        assert_eq!(registry.digest("alpha", seq + 1), None);
        assert_eq!(registry.digest("beta", seq), None);
    }

    #[test]
    fn eviction_leaves_no_residue() {
        let registry = TenantRegistry::new();
        let seq = registry.register("alpha", "{}").expect("register");
        registry.record_report("alpha", seq, "{}").expect("record");
        registry.register("beta", "{}").expect("register");
        registry.evict("alpha").expect("evict");
        assert_eq!(registry.tenants(), ["beta"]);
        assert_eq!(registry.submissions("alpha"), 0);
        assert_eq!(registry.digest("alpha", seq), None);
        // Re-registration starts a fresh journal at sequence zero.
        assert_eq!(registry.register("alpha", "{}").expect("register"), 0);
    }
}
