//! Horizontal DN-subtree sharding: a [`ShardMap`] that assigns DIT
//! subtrees to N backend servers, and a [`ShardRouter`] that exposes the
//! whole fleet as one [`Directory`].
//!
//! The paper's meta-directory is a single DIT behind one lock domain;
//! millions of users need the tree *partitioned* across server processes.
//! The router is deliberately dumb and stateless — all placement policy
//! lives in the `ShardMap`, all data lives in the shards:
//!
//! - **Single-DN operations** (add/delete/modify/compare/bind lookups)
//!   forward to the shard owning the DN — the deepest assigned subtree
//!   containing it, else the *default shard*, which owns everything not
//!   explicitly assigned (the naming spine above the partition roots,
//!   in particular).
//! - **Searches** that land inside one owned region forward whole; a
//!   search whose scope spans regions is *scattered*: the owner of the
//!   base serves the original query, and every assigned subtree under
//!   the base that lives on a different shard gets a **clipped**
//!   sub-query rooted at its partition root; the targets stream to the
//!   caller one after another, in plan order. Because writes route the
//!   same way, each entry physically exists on exactly one shard and the
//!   gathered streams are disjoint by construction — no dedup pass, no
//!   result-set materialization beyond what the caller asked for.
//! - **sizeLimit** keeps RFC 2251 semantics across the fan-out: targets
//!   are drained sequentially with the remaining budget; once the budget
//!   is spent, the rest of the plan is probed with a 1-entry query so
//!   `sizeLimitExceeded` (code 4, partial entries delivered) is raised
//!   exactly when more than `size_limit` entries match fleet-wide.
//!
//! ## Deployment invariants (see DESIGN.md §15)
//!
//! 1. Every write goes through the router (or routes identically).
//!    Writing straight to a shard for a DN it does not own creates an
//!    entry no search plan will ever surface.
//! 2. Each shard is seeded with the naming spine above its partition
//!    roots (parents must exist for adds). Spine *copies* on non-owning
//!    shards are never surfaced: clipped sub-queries start at partition
//!    roots, below the copies.
//! 3. ModifyDN that would move an entry between shards is refused with
//!    `unwillingToPerform` (the closest cousin of X.511's
//!    `affectsMultipleDSAs` our code set has) — same-shard renames pass
//!    through untouched.
//! 4. A down shard fails its own region loudly (`unavailable` from the
//!    TCP client) instead of silently returning partial data: a scatter
//!    hitting a dead shard surfaces the error, it does not skip it.
//!
//! Each shard keeps its own durability dir and its own per-peer delta
//! anti-entropy (PR 5/6) — sharding composes with, and changes nothing
//! about, the replication and WAL layers.

use crate::client::TcpDirectory;
use crate::directory::Directory;
use crate::dit::Scope;
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, Modification};
use crate::error::{LdapError, Result, ResultCode};
use crate::filter::Filter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Assignment of DN subtrees to shard indices.
///
/// Routing rule: the deepest assigned subtree containing a DN owns it;
/// DNs inside no assigned subtree belong to the *default shard*
/// (index 0 unless overridden). Assignments may nest — a subtree
/// assigned inside another subtree carves its region out of the
/// enclosing shard.
#[derive(Debug, Clone)]
pub struct ShardMap {
    shards: usize,
    default_shard: usize,
    /// `(subtree root, shard)`, sorted deepest-first so the first
    /// containing assignment is the deepest.
    assignments: Vec<(Dn, usize)>,
}

/// One sub-query of a scattered search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchTarget {
    pub shard: usize,
    pub base: Dn,
    pub scope: Scope,
    /// `true` for clipped partition-root sub-queries, whose base may not
    /// exist yet (`noSuchObject` from a clip means "empty region", not an
    /// error); the primary target's `noSuchObject` is the real thing.
    pub clipped: bool,
}

impl ShardMap {
    /// A map over `shards` backends with no assignments yet: everything
    /// routes to the default shard.
    pub fn new(shards: usize) -> ShardMap {
        assert!(shards >= 1, "a shard map needs at least one shard");
        ShardMap {
            shards,
            default_shard: 0,
            assignments: Vec::new(),
        }
    }

    /// Assign the subtree rooted at `root` (inclusive) to `shard`.
    pub fn assign(mut self, root: Dn, shard: usize) -> Result<ShardMap> {
        if shard >= self.shards {
            return Err(LdapError::new(
                ResultCode::UnwillingToPerform,
                format!("shard {shard} out of range (map has {})", self.shards),
            ));
        }
        if root.is_root() {
            return Err(LdapError::new(
                ResultCode::UnwillingToPerform,
                "cannot assign the DIT root; use the default shard for unassigned space",
            ));
        }
        if self.assignments.iter().any(|(r, _)| *r == root) {
            return Err(LdapError::new(
                ResultCode::UnwillingToPerform,
                format!("subtree `{root}` assigned twice"),
            ));
        }
        self.assignments.push((root, shard));
        // Deepest-first, then lexicographic for determinism.
        self.assignments.sort_by(|(a, _), (b, _)| {
            b.depth()
                .cmp(&a.depth())
                .then(a.norm_key().cmp(&b.norm_key()))
        });
        Ok(self)
    }

    /// Route DNs inside no assigned subtree to `shard` instead of 0.
    pub fn with_default_shard(mut self, shard: usize) -> ShardMap {
        assert!(shard < self.shards, "default shard out of range");
        self.default_shard = shard;
        self
    }

    pub fn shards(&self) -> usize {
        self.shards
    }

    pub fn default_shard(&self) -> usize {
        self.default_shard
    }

    /// The assigned subtrees, deepest-first.
    pub fn assignments(&self) -> &[(Dn, usize)] {
        &self.assignments
    }

    /// The shard owning `dn`.
    pub fn shard_for(&self, dn: &Dn) -> usize {
        self.assignments
            .iter()
            .find(|(root, _)| dn.is_within(root))
            .map(|(_, shard)| *shard)
            .unwrap_or(self.default_shard)
    }

    /// The scatter/gather plan for a search: the owner of `base` serves
    /// the original query first, then every assigned subtree under `base`
    /// living on a *different* shard gets a clipped sub-query at its
    /// partition root. A clip is dropped when an enclosing clip on the
    /// same shard already covers it (the entries live in one DIT).
    pub fn plan(&self, base: &Dn, scope: Scope) -> Vec<SearchTarget> {
        let owner = self.shard_for(base);
        let mut plan = vec![SearchTarget {
            shard: owner,
            base: base.clone(),
            scope,
            clipped: false,
        }];
        if scope == Scope::Base {
            return plan;
        }
        // Shallowest-first so enclosing clips are emitted before the
        // nested assignments they cover.
        let mut nested: Vec<&(Dn, usize)> = self
            .assignments
            .iter()
            .filter(|(root, _)| root.is_within(base) && root != base)
            .collect();
        nested.sort_by(|(a, _), (b, _)| {
            a.depth()
                .cmp(&b.depth())
                .then(a.norm_key().cmp(&b.norm_key()))
        });
        for (root, shard) in nested {
            if *shard == owner {
                continue; // physically in the owner's DIT: the primary query covers it
            }
            let clip_scope = match scope {
                Scope::Sub => Scope::Sub,
                Scope::One => {
                    // Only partition roots that are direct children of the
                    // base are in a one-level result set.
                    if root.parent().as_ref() == Some(base) {
                        Scope::Base
                    } else {
                        continue;
                    }
                }
                Scope::Base => unreachable!("base scope returned above"),
            };
            let covered = plan.iter().any(|t| {
                t.clipped && t.shard == *shard && t.scope == Scope::Sub && root.is_within(&t.base)
            });
            if covered {
                continue;
            }
            plan.push(SearchTarget {
                shard: *shard,
                base: root.clone(),
                scope: clip_scope,
                clipped: true,
            });
        }
        plan
    }

    /// The naming spine a shard must be seeded with: every proper
    /// ancestor (below the DIT root) of each subtree assigned to `shard`,
    /// outermost first — parents must exist before partitioned adds land.
    pub fn spine_for(&self, shard: usize) -> Vec<Dn> {
        let mut spine: Vec<Dn> = Vec::new();
        for (root, s) in &self.assignments {
            if *s != shard {
                continue;
            }
            let mut cur = root.parent();
            while let Some(dn) = cur {
                if dn.is_root() {
                    break;
                }
                if !spine.contains(&dn) {
                    spine.push(dn.clone());
                }
                cur = dn.parent();
            }
        }
        spine.sort_by_key(|d| d.depth());
        spine
    }
}

/// Fan-out counters the router keeps; exported into `cn=monitor` as the
/// `shard` component (see `metacomm::obs`).
#[derive(Debug)]
pub struct ShardMetrics {
    /// Single-DN operations forwarded, per shard.
    pub ops_routed: Vec<AtomicU64>,
    /// Searches answered by one shard (base inside one owned region).
    pub searches_single: AtomicU64,
    /// Searches scattered across shards.
    pub searches_fanout: AtomicU64,
    /// Clipped sub-queries issued by scattered searches.
    pub fanout_subqueries: AtomicU64,
    /// 1-entry probes issued after a size limit was exhausted mid-plan.
    pub limit_probes: AtomicU64,
    /// ModifyDN requests refused because they crossed shards.
    pub renames_refused: AtomicU64,
}

impl ShardMetrics {
    fn new(shards: usize) -> ShardMetrics {
        ShardMetrics {
            ops_routed: (0..shards).map(|_| AtomicU64::new(0)).collect(),
            searches_single: AtomicU64::new(0),
            searches_fanout: AtomicU64::new(0),
            fanout_subqueries: AtomicU64::new(0),
            limit_probes: AtomicU64::new(0),
            renames_refused: AtomicU64::new(0),
        }
    }

    /// Total single-DN operations forwarded.
    pub fn ops_total(&self) -> u64 {
        self.ops_routed
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .sum()
    }
}

/// A [`Directory`] over a fleet of shard backends. Serve it with
/// [`crate::server::Server`] and any LDAP client talks to the fleet as if
/// it were one server — binds included: the wire server's bind handler
/// resolves credentials through [`Directory::get`], which routes to the
/// shard owning the bind DN.
pub struct ShardRouter {
    map: ShardMap,
    backends: Vec<Arc<dyn Directory>>,
    metrics: Arc<ShardMetrics>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.backends.len())
            .finish_non_exhaustive()
    }
}

impl ShardRouter {
    /// Route over already-connected backends (in-process DITs, TCP
    /// clients, or a mix — anything implementing [`Directory`]).
    pub fn new(map: ShardMap, backends: Vec<Arc<dyn Directory>>) -> Result<Arc<ShardRouter>> {
        if backends.len() != map.shards() {
            return Err(LdapError::new(
                ResultCode::UnwillingToPerform,
                format!(
                    "shard map expects {} backends, got {}",
                    map.shards(),
                    backends.len()
                ),
            ));
        }
        let metrics = Arc::new(ShardMetrics::new(backends.len()));
        Ok(Arc::new(ShardRouter {
            map,
            backends,
            metrics,
        }))
    }

    /// Connect one [`TcpDirectory`] per shard address.
    pub fn connect(map: ShardMap, addrs: &[String]) -> Result<Arc<ShardRouter>> {
        let backends = addrs
            .iter()
            .map(|a| TcpDirectory::connect(a).map(|d| Arc::new(d) as Arc<dyn Directory>))
            .collect::<Result<Vec<_>>>()?;
        ShardRouter::new(map, backends)
    }

    pub fn map(&self) -> &ShardMap {
        &self.map
    }

    pub fn metrics(&self) -> Arc<ShardMetrics> {
        self.metrics.clone()
    }

    fn owner(&self, dn: &Dn) -> &Arc<dyn Directory> {
        let shard = self.map.shard_for(dn);
        self.metrics.ops_routed[shard].fetch_add(1, Ordering::Relaxed);
        &self.backends[shard]
    }

    /// One sub-query of a plan. A clipped partition root that does not
    /// exist yet is an empty region, exactly as it would be on a single
    /// server; the primary target's `noSuchObject` is the real thing.
    fn sub_query(
        &self,
        t: &SearchTarget,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        match self.backends[t.shard]
            .search_visit(&t.base, t.scope, filter, attrs, size_limit, visit)
        {
            Err(e) if t.clipped && e.code == ResultCode::NoSuchObject => Ok((0, false)),
            r => r,
        }
    }

    /// Does any target in `rest` still hold a matching entry? Drives the
    /// code-4 decision once the size budget is spent.
    fn more_matches(&self, rest: &[SearchTarget], filter: &Filter) -> Result<bool> {
        for t in rest {
            self.metrics.limit_probes.fetch_add(1, Ordering::Relaxed);
            if self.sub_query(t, filter, &[], 1, &mut |_| {})?.0 > 0 {
                return Ok(true);
            }
        }
        Ok(false)
    }

    fn note_plan(&self, plan: &[SearchTarget]) {
        if plan.len() == 1 {
            self.metrics.searches_single.fetch_add(1, Ordering::Relaxed);
        } else {
            self.metrics.searches_fanout.fetch_add(1, Ordering::Relaxed);
            self.metrics
                .fanout_subqueries
                .fetch_add(plan.len() as u64 - 1, Ordering::Relaxed);
        }
    }
}

impl Directory for ShardRouter {
    fn add(&self, entry: Entry) -> Result<()> {
        let backend = self.owner(entry.dn()).clone();
        backend.add(entry)
    }

    fn delete(&self, dn: &Dn) -> Result<()> {
        self.owner(dn).delete(dn)
    }

    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        self.owner(dn).modify(dn, mods)
    }

    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        let new_dn = match new_superior {
            Some(sup) => sup.child(new_rdn.clone()),
            None => dn.with_rdn(new_rdn.clone())?,
        };
        let from = self.map.shard_for(dn);
        let to = self.map.shard_for(&new_dn);
        if from != to {
            self.metrics.renames_refused.fetch_add(1, Ordering::Relaxed);
            return Err(LdapError::new(
                ResultCode::UnwillingToPerform,
                format!(
                    "modifyDN would move `{dn}` from shard {from} to shard {to}; \
                     cross-shard moves are not supported"
                ),
            ));
        }
        self.metrics.ops_routed[from].fetch_add(1, Ordering::Relaxed);
        self.backends[from].modify_rdn(dn, new_rdn, delete_old, new_superior)
    }

    fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        let plan = self.map.plan(base, scope);
        self.note_plan(&plan);
        if let [only] = plan.as_slice() {
            return self.backends[only.shard]
                .search_visit(base, scope, filter, attrs, size_limit, visit);
        }
        // Stream target after target in plan order: entries flow to the
        // caller as each shard produces them, nothing is collected here.
        let mut total = 0usize;
        for (i, t) in plan.iter().enumerate() {
            let remaining = if size_limit == 0 {
                0
            } else {
                size_limit - total
            };
            let (count, truncated) = self.sub_query(t, filter, attrs, remaining, visit)?;
            total += count;
            if truncated {
                return Ok((total, true));
            }
            if size_limit != 0 && total >= size_limit {
                let truncated = self.more_matches(&plan[i + 1..], filter)?;
                return Ok((total, truncated));
            }
        }
        Ok((total, false))
    }

    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        self.owner(dn).compare(dn, attr, value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dit::Dit;

    fn dn(s: &str) -> Dn {
        Dn::parse(s).unwrap()
    }

    fn map3() -> ShardMap {
        // Shard 0 (default) owns the spine + unassigned space; the two
        // departments are carved out.
        ShardMap::new(3)
            .assign(dn("ou=Wireless,o=Lucent"), 1)
            .unwrap()
            .assign(dn("ou=Optical,o=Lucent"), 2)
            .unwrap()
    }

    #[test]
    fn deepest_assignment_wins() {
        let map = ShardMap::new(3)
            .assign(dn("ou=a,o=X"), 1)
            .unwrap()
            .assign(dn("ou=b,ou=a,o=X"), 2)
            .unwrap();
        assert_eq!(map.shard_for(&dn("o=X")), 0);
        assert_eq!(map.shard_for(&dn("cn=p,ou=a,o=X")), 1);
        assert_eq!(map.shard_for(&dn("ou=b,ou=a,o=X")), 2);
        assert_eq!(map.shard_for(&dn("cn=p,ou=b,ou=a,o=X")), 2);
    }

    #[test]
    fn plan_single_when_base_owned() {
        let map = map3();
        let plan = map.plan(&dn("cn=p,ou=Wireless,o=Lucent"), Scope::Sub);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].shard, 1);
        assert!(!plan[0].clipped);
        // Base scope never fans out.
        assert_eq!(map.plan(&dn("o=Lucent"), Scope::Base).len(), 1);
    }

    #[test]
    fn plan_fans_out_from_the_spine() {
        let map = map3();
        let plan = map.plan(&dn("o=Lucent"), Scope::Sub);
        assert_eq!(plan.len(), 3);
        assert_eq!((plan[0].shard, plan[0].clipped), (0, false));
        let clips: Vec<(usize, String)> = plan[1..]
            .iter()
            .map(|t| (t.shard, t.base.to_string()))
            .collect();
        assert!(clips.contains(&(1, "ou=Wireless,o=Lucent".into())));
        assert!(clips.contains(&(2, "ou=Optical,o=Lucent".into())));
    }

    #[test]
    fn one_level_clips_only_direct_children() {
        let map = ShardMap::new(2)
            .assign(dn("ou=deep,ou=mid,o=X"), 1)
            .unwrap();
        // `ou=deep` is two levels below the base: a one-level search at
        // o=X cannot return it.
        let plan = map.plan(&dn("o=X"), Scope::One);
        assert_eq!(plan.len(), 1);
        // …but a one-level search at ou=mid sees it as a Base-scope clip.
        let plan = map.plan(&dn("ou=mid,o=X"), Scope::One);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].scope, Scope::Base);
    }

    #[test]
    fn nested_same_shard_clip_is_covered() {
        let map = ShardMap::new(2)
            .assign(dn("ou=a,o=X"), 1)
            .unwrap()
            .assign(dn("ou=b,ou=a,o=X"), 1)
            .unwrap();
        let plan = map.plan(&dn("o=X"), Scope::Sub);
        // One clip at ou=a covers the nested assignment on the same shard.
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[1].base, dn("ou=a,o=X"));
    }

    #[test]
    fn nested_other_shard_clip_survives() {
        let map = ShardMap::new(3)
            .assign(dn("ou=a,o=X"), 1)
            .unwrap()
            .assign(dn("ou=b,ou=a,o=X"), 2)
            .unwrap();
        let plan = map.plan(&dn("o=X"), Scope::Sub);
        assert_eq!(plan.len(), 3);
        // And a search inside ou=a still fans out to the carve-out.
        let plan = map.plan(&dn("ou=a,o=X"), Scope::Sub);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan[0].shard, 1);
        assert_eq!(plan[1].shard, 2);
    }

    #[test]
    fn spine_for_lists_proper_ancestors() {
        let map = ShardMap::new(2).assign(dn("ou=b,ou=a,o=X"), 1).unwrap();
        assert_eq!(map.spine_for(1), vec![dn("o=X"), dn("ou=a,o=X")]);
        assert!(map.spine_for(0).is_empty());
    }

    #[test]
    fn map_validation() {
        assert!(ShardMap::new(2).assign(dn("o=X"), 5).is_err());
        assert!(ShardMap::new(2).assign(Dn::root(), 1).is_err());
        let m = ShardMap::new(2).assign(dn("o=X"), 1).unwrap();
        assert!(m.assign(dn("o=X"), 0).is_err());
    }

    /// An in-process 3-shard fleet over raw DITs, spine-seeded.
    fn fleet() -> (Arc<ShardRouter>, Vec<Arc<Dit>>) {
        let map = map3();
        let dits: Vec<Arc<Dit>> = (0..3).map(|_| Dit::new()).collect();
        for (i, d) in dits.iter().enumerate() {
            let mut seed = vec![dn("o=Lucent")];
            seed.extend(map.spine_for(i));
            seed.sort_by_key(|d| d.depth());
            seed.dedup();
            for s in seed {
                let name = s.rdn().unwrap().first().value().to_string();
                let e = if s.depth() == 1 {
                    Entry::with_attrs(s, [("objectClass", "organization"), ("o", name.as_str())])
                } else {
                    Entry::with_attrs(
                        s,
                        [("objectClass", "organizationalUnit"), ("ou", name.as_str())],
                    )
                };
                let _ = d.add(e);
            }
        }
        let backends: Vec<Arc<dyn Directory>> = dits
            .iter()
            .map(|d| d.clone() as Arc<dyn Directory>)
            .collect();
        let router = ShardRouter::new(map, backends).unwrap();
        // The partition roots themselves route to their owners.
        for (ou, _) in [("Wireless", 1), ("Optical", 2)] {
            router
                .add(Entry::with_attrs(
                    dn(&format!("ou={ou},o=Lucent")),
                    [("objectClass", "organizationalUnit"), ("ou", ou)],
                ))
                .unwrap();
        }
        (router, dits)
    }

    fn person(cn: &str, parent: &str) -> Entry {
        Entry::with_attrs(
            dn(&format!("cn={cn},{parent}")),
            [
                ("objectClass", "person"),
                ("cn", cn),
                ("sn", cn.split(' ').next_back().unwrap()),
            ],
        )
    }

    #[test]
    fn writes_route_to_owning_shard() {
        let (router, dits) = fleet();
        router
            .add(person("Ana Chen", "ou=Wireless,o=Lucent"))
            .unwrap();
        router.add(person("Wei Lu", "ou=Optical,o=Lucent")).unwrap();
        router.add(person("Pat Smith", "o=Lucent")).unwrap();
        assert!(dits[1].exists(&dn("cn=Ana Chen,ou=Wireless,o=Lucent")));
        assert!(!dits[0].exists(&dn("cn=Ana Chen,ou=Wireless,o=Lucent")));
        assert!(dits[2].exists(&dn("cn=Wei Lu,ou=Optical,o=Lucent")));
        assert!(dits[0].exists(&dn("cn=Pat Smith,o=Lucent")));

        router
            .modify(
                &dn("cn=Ana Chen,ou=Wireless,o=Lucent"),
                &[Modification::set("telephoneNumber", "1001")],
            )
            .unwrap();
        assert_eq!(
            dits[1]
                .get(&dn("cn=Ana Chen,ou=Wireless,o=Lucent"))
                .unwrap()
                .unwrap()
                .first("telephoneNumber"),
            Some("1001")
        );
        assert!(router
            .compare(&dn("cn=Wei Lu,ou=Optical,o=Lucent"), "sn", "Lu")
            .unwrap());
    }

    #[test]
    fn scattered_search_merges_disjoint_regions() {
        let (router, _dits) = fleet();
        router
            .add(person("Ana Chen", "ou=Wireless,o=Lucent"))
            .unwrap();
        router.add(person("Wei Lu", "ou=Optical,o=Lucent")).unwrap();
        router.add(person("Pat Smith", "o=Lucent")).unwrap();

        let all = router
            .search(
                &dn("o=Lucent"),
                Scope::Sub,
                &Filter::parse("(objectClass=person)").unwrap(),
                &[],
                0,
            )
            .unwrap();
        let mut names: Vec<String> = all.iter().map(|e| e.first("cn").unwrap().into()).collect();
        names.sort();
        assert_eq!(names, ["Ana Chen", "Pat Smith", "Wei Lu"]);

        // Partition roots surface exactly once each from their owners.
        let ous = router
            .search(
                &dn("o=Lucent"),
                Scope::Sub,
                &Filter::parse("(objectClass=organizationalUnit)").unwrap(),
                &[],
                0,
            )
            .unwrap();
        assert_eq!(ous.len(), 2);

        // One-level at the spine sees the partition roots and spine kids.
        let one = router
            .search(&dn("o=Lucent"), Scope::One, &Filter::match_all(), &[], 0)
            .unwrap();
        assert_eq!(one.len(), 3, "{one:?}");
        assert_eq!(router.metrics().searches_fanout.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn size_limit_is_fleet_wide() {
        let (router, _dits) = fleet();
        for i in 0..4 {
            router
                .add(person(&format!("W {i}"), "ou=Wireless,o=Lucent"))
                .unwrap();
            router
                .add(person(&format!("O {i}"), "ou=Optical,o=Lucent"))
                .unwrap();
        }
        let f = Filter::parse("(objectClass=person)").unwrap();
        // 8 people match; a limit of 5 delivers 5 + truncated.
        let (hits, truncated) = router
            .search_capped(&dn("o=Lucent"), Scope::Sub, &f, &[], 5)
            .unwrap();
        assert!(truncated);
        assert_eq!(hits.len(), 5);
        // A limit of exactly 8 is not truncated.
        let (hits, truncated) = router
            .search_capped(&dn("o=Lucent"), Scope::Sub, &f, &[], 8)
            .unwrap();
        assert!(!truncated);
        assert_eq!(hits.len(), 8);
        // The strict search raises code 4.
        let err = router
            .search(&dn("o=Lucent"), Scope::Sub, &f, &[], 3)
            .unwrap_err();
        assert_eq!(err.code, ResultCode::SizeLimitExceeded);
        // search_visit agrees with search_capped.
        let mut seen = 0usize;
        let (count, truncated) = router
            .search_visit(&dn("o=Lucent"), Scope::Sub, &f, &[], 5, &mut |_| seen += 1)
            .unwrap();
        assert!(truncated);
        assert_eq!((count, seen), (5, 5));
    }

    #[test]
    fn cross_shard_rename_is_refused() {
        let (router, dits) = fleet();
        router
            .add(person("Ana Chen", "ou=Wireless,o=Lucent"))
            .unwrap();
        let ana = dn("cn=Ana Chen,ou=Wireless,o=Lucent");
        let err = router
            .modify_rdn(
                &ana,
                &Rdn::new("cn", "Ana Chen"),
                true,
                Some(&dn("ou=Optical,o=Lucent")),
            )
            .unwrap_err();
        assert_eq!(err.code, ResultCode::UnwillingToPerform);
        assert_eq!(router.metrics().renames_refused.load(Ordering::Relaxed), 1);
        // Same-shard renames pass through.
        router
            .modify_rdn(&ana, &Rdn::new("cn", "Ana Doe"), true, None)
            .unwrap();
        assert!(dits[1].exists(&dn("cn=Ana Doe,ou=Wireless,o=Lucent")));
    }

    #[test]
    fn missing_base_semantics() {
        let (router, _dits) = fleet();
        // A genuinely missing base is noSuchObject, as on one server.
        let err = router
            .search(
                &dn("ou=Ghost,o=Lucent"),
                Scope::Sub,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap_err();
        assert_eq!(err.code, ResultCode::NoSuchObject);
        // A clipped partition root that does not exist yet is an empty
        // region, not an error: rebuild a fleet without the ou entries.
        let map = map3();
        let dits: Vec<Arc<Dit>> = (0..3).map(|_| Dit::new()).collect();
        for d in &dits {
            d.add(Entry::with_attrs(
                dn("o=Lucent"),
                [("objectClass", "organization"), ("o", "Lucent")],
            ))
            .unwrap();
        }
        let router = ShardRouter::new(
            map,
            dits.iter()
                .map(|d| d.clone() as Arc<dyn Directory>)
                .collect(),
        )
        .unwrap();
        let hits = router
            .search(&dn("o=Lucent"), Scope::Sub, &Filter::match_all(), &[], 0)
            .unwrap();
        assert_eq!(hits.len(), 1, "just the spine root");
    }
}
