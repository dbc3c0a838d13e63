//! Phase 2 of the workspace analyzer: cross-file rules over the per-file
//! semantic models ([`crate::model`]).
//!
//! Both rules work on an approximate intra-crate call graph resolved by
//! name: a call site `rebuild_ring(..)` resolves to every non-test fn
//! named `rebuild_ring` in the same crate, excluding the calling fn
//! itself (so `Cluster::owner_of` delegating to `HashRing::owner_of`
//! does not become a self-loop) and a deny-list of ubiquitous method
//! names (`new`, `get`, `insert`, ...) that would otherwise wire every
//! constructor into every lock set. The deny-list trades false negatives
//! for zero false positives; DESIGN.md §9 spells the trade out.
//!
//! **LT08 lock-order**: a directed edge `A → B` is recorded when lock B
//! is acquired while a guard of lock A is live — directly, or because a
//! call made under A resolves to a fn whose *transitive* acquire-set
//! contains B (that is how `peer_success` holding `membership` and
//! calling `rebuild_ring`, which locks `ring`, yields
//! `membership → ring`). Any cycle in the graph is a deny-level finding
//! anchored at the lexicographically first edge of the cycle, with the
//! witness path printed in the suggestion.
//!
//! **LT09 no-blocking-on-pool-worker**: dispatcher call names start from
//! `{submit, execute, run_batch}` (`WorkerPool`'s job entry points) and
//! grow by one derivation: a fn that passes one of its own parameters
//! into a dispatcher's arguments (`run_on_pool(state, f)` calling
//! `pool.execute(move || f(shared))`) is itself a dispatcher. Pool-job
//! regions are the argument spans of dispatcher calls plus the
//! initializer spans of `let job = ...;` bindings later passed to a
//! dispatcher by name. From every call made in a pool-job region, a BFS
//! over the call graph must not reach a network sink — a fn that
//! mentions `TcpStream` or lives in `cluster/forward.rs`. `thread::spawn`
//! and scoped `spawn` are *not* dispatchers: connection threads are
//! exactly where forwarding is allowed to block.
//!
//! **LT09 reactor leg**: every non-test fn in `reactor.rs` runs on a
//! reactor thread, which pumps *all* connections — one blocking call
//! stalls every socket on the shard. Reactor fns legitimately own
//! `TcpStream`s (non-blocking reads/writes), so mere `TcpStream` mention
//! is not a sink here; the sinks are `TcpStream::connect*` (the blocking
//! primitive a reactor must never issue) and anything in
//! `cluster/forward.rs`. Calls inside closures handed to `offload` or a
//! pool dispatcher run on handler/worker threads and are exempt — at
//! every hop of the walk, not just the root (that is how
//! `reactor -> route -> offload(|| handle_solve(..))` stays clean while a
//! hypothetical `reactor -> route -> exchange` would be flagged).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::model::{FileModel, FnModel};
use crate::report::Finding;

/// `WorkerPool`'s job entry points: a closure passed to one of these runs
/// on a pool worker.
const BASE_DISPATCHERS: &[&str] = &["submit", "execute", "run_batch"];

/// Names never resolved through the call graph: ubiquitous std / helper
/// method names that would alias unrelated fns together. The cost is a
/// documented false negative (a lock taken inside e.g. a `get` helper is
/// invisible to callers), not a false positive.
const UNRESOLVED_NAMES: &[&str] = &[
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "default",
    "drain",
    "drop",
    "eq",
    "extend",
    "filter",
    "flush",
    "fmt",
    "from",
    "get",
    "hash",
    "insert",
    "into",
    "is_empty",
    "iter",
    "join",
    "len",
    "lock",
    "map",
    "merge",
    "new",
    "next",
    "pop",
    "push",
    "read",
    "recv",
    "remove",
    "send",
    "take",
    "to_string",
    "wait",
    "with",
    "write",
];

/// A fn's address in the model set.
type FnRef = (usize, usize); // (file index, fn index)

/// Cross-file analysis over one crate's models: LT08 + LT09 findings.
/// Findings carry empty snippets — the engine fills them from source.
pub fn workspace_findings(models: &[&FileModel]) -> Vec<Finding> {
    let mut out = Vec::new();
    // Group by crate; the concurrency rules are scoped to `service`.
    let crates: BTreeSet<&str> = models
        .iter()
        .filter_map(|m| m.crate_name.as_deref())
        .collect();
    for krate in crates {
        if krate != "service" {
            continue;
        }
        let in_crate: Vec<(usize, &FileModel)> = models
            .iter()
            .enumerate()
            .filter(|(_, m)| m.crate_name.as_deref() == Some(krate))
            .map(|(i, m)| (i, *m))
            .collect();
        let graph = CrateGraph::build(models, &in_crate);
        out.extend(graph.lock_order_findings());
        out.extend(graph.pool_reachability_findings());
        out.extend(graph.reactor_reachability_findings());
    }
    out
}

/// One lock-order edge `from → to` with its witness site.
#[derive(Debug, Clone)]
struct LockEdge {
    to: String,
    file: String,
    line: u32,
    col: u32,
    /// Callee the edge goes through, for cross-fn edges.
    via: Option<String>,
}

/// The per-crate call graph plus the derived lock/dispatcher facts.
struct CrateGraph<'a> {
    files: Vec<(usize, &'a FileModel)>,
    /// name → fns carrying it (non-test only).
    by_name: BTreeMap<&'a str, Vec<FnRef>>,
    /// Transitive lock-acquire set per fn (file idx, fn idx) → lock names.
    acquires: BTreeMap<FnRef, BTreeSet<String>>,
}

impl<'a> CrateGraph<'a> {
    fn build(all: &'a [&'a FileModel], files: &[(usize, &'a FileModel)]) -> Self {
        let files: Vec<(usize, &FileModel)> = files.to_vec();
        let mut by_name: BTreeMap<&str, Vec<FnRef>> = BTreeMap::new();
        for (fi, m) in &files {
            for (gi, f) in m.fns.iter().enumerate() {
                if !f.in_test {
                    by_name.entry(f.name.as_str()).or_default().push((*fi, gi));
                }
            }
        }
        let mut graph = CrateGraph {
            files,
            by_name,
            acquires: BTreeMap::new(),
        };
        graph.compute_acquires(all);
        graph
    }

    fn fn_at(&self, all: &[&'a FileModel], r: FnRef) -> &'a FnModel {
        &all[r.0].fns[r.1]
    }

    /// Callee candidates for `call_name` from inside `caller`, excluding
    /// the caller itself (recursion and same-name delegation) and the
    /// unresolvable-name deny-list.
    fn resolve(&self, call_name: &str, caller: FnRef) -> Vec<FnRef> {
        if UNRESOLVED_NAMES.contains(&call_name) {
            return Vec::new();
        }
        self.by_name
            .get(call_name)
            .map(|v| v.iter().copied().filter(|r| *r != caller).collect())
            .unwrap_or_default()
    }

    /// Fixpoint: each fn's transitive lock-acquire set (its own locks plus
    /// those of everything it can call).
    fn compute_acquires(&mut self, all: &[&'a FileModel]) {
        let refs: Vec<FnRef> = self
            .files
            .iter()
            .flat_map(|(fi, m)| (0..m.fns.len()).map(move |gi| (*fi, gi)))
            .collect();
        for &r in &refs {
            let direct: BTreeSet<String> = self
                .fn_at(all, r)
                .locks
                .iter()
                .map(|l| l.lock.clone())
                .collect();
            self.acquires.insert(r, direct);
        }
        loop {
            let mut changed = false;
            for &r in &refs {
                let mut grown: BTreeSet<String> = self.acquires[&r].clone();
                for call in &self.fn_at(all, r).calls {
                    for callee in self.resolve(&call.name, r) {
                        if let Some(set) = self.acquires.get(&callee) {
                            grown.extend(set.iter().cloned());
                        }
                    }
                }
                if grown.len() > self.acquires[&r].len() {
                    self.acquires.insert(r, grown);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// LT08: build the lock-order graph and report one finding per cycle
    /// family (strongly connected component), witness path included.
    fn lock_order_findings(&self) -> Vec<Finding> {
        let mut edges: BTreeMap<String, BTreeMap<String, LockEdge>> = BTreeMap::new();
        let mut add = |from: &str, e: LockEdge| {
            if from == e.to && e.via.is_some() {
                // A via-edge back to the held lock is name-collision noise;
                // a *direct* self-edge (re-locking under the same guard)
                // stays — that is a real single-lock deadlock.
                return;
            }
            let slot = edges.entry(from.to_string()).or_default();
            match slot.get(&e.to) {
                Some(prev) if (prev.file.as_str(), prev.line) <= (e.file.as_str(), e.line) => {}
                _ => {
                    slot.insert(e.to.clone(), e);
                }
            }
        };

        for &(fi, m) in &self.files {
            if !matches!(
                m.kind,
                crate::rules::FileKind::Library | crate::rules::FileKind::Bin
            ) {
                continue;
            }
            for (gi, f) in m.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                // Direct nesting: lock B taken while A is held.
                for site in &f.locks {
                    for held in &site.held {
                        add(
                            &held.lock,
                            LockEdge {
                                to: site.lock.clone(),
                                file: m.rel_path.clone(),
                                line: site.line,
                                col: site.col,
                                via: None,
                            },
                        );
                    }
                }
                // Cross-fn: a call under A pulls in the callee's
                // transitive acquire-set.
                for call in &f.calls {
                    if call.held.is_empty() {
                        continue;
                    }
                    for callee in self.resolve(&call.name, (fi, gi)) {
                        let Some(acq) = self.acquires.get(&callee) else {
                            continue;
                        };
                        for lock in acq {
                            for held in &call.held {
                                add(
                                    &held.lock,
                                    LockEdge {
                                        to: lock.clone(),
                                        file: m.rel_path.clone(),
                                        line: call.line,
                                        col: call.col,
                                        via: Some(call.name.clone()),
                                    },
                                );
                            }
                        }
                    }
                }
            }
        }

        cycle_findings(&edges)
    }

    /// LT09: no pool-job region may reach a network sink.
    fn pool_reachability_findings(&self) -> Vec<Finding> {
        // Dispatcher closure: grow from the base names by
        // param-passed-to-dispatcher derivation until stable.
        let mut dispatchers: BTreeSet<String> =
            BASE_DISPATCHERS.iter().map(|s| s.to_string()).collect();
        loop {
            let mut grew = false;
            for (_, m) in &self.files {
                for f in &m.fns {
                    if f.in_test || dispatchers.contains(&f.name) {
                        continue;
                    }
                    let passes_param = f.calls.iter().any(|c| {
                        dispatchers.contains(&c.name)
                            && c.arg_idents.iter().any(|a| f.params.contains(a))
                    });
                    if passes_param {
                        dispatchers.insert(f.name.clone());
                        grew = true;
                    }
                }
            }
            if !grew {
                break;
            }
        }

        let mut findings = Vec::new();
        for (fi, m) in &self.files {
            if !matches!(
                m.kind,
                crate::rules::FileKind::Library | crate::rules::FileKind::Bin
            ) {
                continue;
            }
            for (gi, f) in m.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                // Bindings handed to a dispatcher by name: their
                // initializer spans are pool-job regions too.
                let pool_bindings: BTreeSet<&String> = f
                    .calls
                    .iter()
                    .filter(|c| dispatchers.contains(&c.name))
                    .flat_map(|c| c.arg_idents.iter())
                    .collect();
                for call in &f.calls {
                    let in_dispatch_args =
                        call.enclosing_args.iter().any(|n| dispatchers.contains(n));
                    let in_pool_binding = call
                        .enclosing_lets
                        .iter()
                        .any(|n| pool_bindings.contains(n));
                    if !in_dispatch_args && !in_pool_binding {
                        continue;
                    }
                    if dispatchers.contains(&call.name) {
                        continue; // the dispatcher call itself
                    }
                    if let Some(path) = self.path_to_sink(call, (*fi, gi)) {
                        findings.push(Finding {
                            file: m.rel_path.clone(),
                            line: call.line,
                            col: call.col,
                            rule: "LT09",
                            snippet: String::new(),
                            suggestion: format!(
                                "pool-worker job reaches network I/O ({path}); run forwarding \
                                 on the connection thread (see DESIGN.md §12) or hand the \
                                 result back through a channel"
                            ),
                        });
                    }
                }
            }
        }
        findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
        findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.col == b.col);
        findings
    }

    /// BFS from one pool-region call to a network sink; returns the
    /// witness path `a -> b -> TcpStream at file:line` when one exists.
    fn path_to_sink(&self, root: &crate::model::CallSite, caller: FnRef) -> Option<String> {
        // A direct `TcpStream::connect(..)` inside the region.
        if root.qualifier.as_deref() == Some("TcpStream") {
            return Some(format!("direct TcpStream::{} call", root.name));
        }
        let all: Vec<&FileModel> = self.files.iter().map(|(_, m)| *m).collect();
        let locate = |r: FnRef| -> Option<(&FileModel, &FnModel)> {
            let (pos, _) = self
                .files
                .iter()
                .enumerate()
                .find(|(_, (fi, _))| *fi == r.0)?;
            let m = all[pos];
            m.fns.get(r.1).map(|f| (m, f))
        };
        let mut queue: VecDeque<(FnRef, Vec<String>)> = VecDeque::new();
        let mut seen: BTreeSet<FnRef> = BTreeSet::new();
        // Paths carry the fns already walked; the first hop's name is the
        // root call's own name, so the seed path is empty.
        for callee in self.resolve(&root.name, caller) {
            if seen.insert(callee) {
                queue.push_back((callee, Vec::new()));
            }
        }
        while let Some((r, path)) = queue.pop_front() {
            let Some((m, f)) = locate(r) else { continue };
            let is_sink = f.has_network || m.rel_path.ends_with("cluster/forward.rs");
            if is_sink {
                let mut chain = path.join(" -> ");
                if chain.is_empty() {
                    chain = f.name.clone();
                } else {
                    chain = format!("{chain} -> {}", f.name);
                }
                return Some(format!("{chain} at {}:{}", m.rel_path, f.line));
            }
            if path.len() > 16 {
                continue; // defensive bound; real chains are short
            }
            for call in &f.calls {
                if call.qualifier.as_deref() == Some("TcpStream") {
                    let chain: Vec<&str> = path
                        .iter()
                        .map(String::as_str)
                        .chain([f.name.as_str()])
                        .collect();
                    return Some(format!(
                        "{} -> TcpStream::{} at {}:{}",
                        chain.join(" -> "),
                        call.name,
                        m.rel_path,
                        call.line
                    ));
                }
                for callee in self.resolve(&call.name, r) {
                    if seen.insert(callee) {
                        let mut next = path.clone();
                        next.push(f.name.clone());
                        queue.push_back((callee, next));
                    }
                }
            }
        }
        None
    }

    /// LT09 reactor leg: no call made on a reactor thread may reach
    /// blocking network I/O (see the module doc for the sink
    /// definition and the offload exemption).
    fn reactor_reachability_findings(&self) -> Vec<Finding> {
        // Closures handed to these run off the reactor thread; calls
        // inside them are someone else's problem (the pool leg covers
        // the dispatchers, and `offload` closures land on handler
        // threads, where blocking is the whole point).
        let exempt: BTreeSet<&str> = BASE_DISPATCHERS
            .iter()
            .copied()
            .chain(["offload"])
            .collect();
        let mut findings = Vec::new();
        for (fi, m) in &self.files {
            if !m.rel_path.ends_with("reactor.rs")
                || !matches!(
                    m.kind,
                    crate::rules::FileKind::Library | crate::rules::FileKind::Bin
                )
            {
                continue;
            }
            for (gi, f) in m.fns.iter().enumerate() {
                if f.in_test {
                    continue;
                }
                for call in &f.calls {
                    if call
                        .enclosing_args
                        .iter()
                        .any(|n| exempt.contains(n.as_str()))
                    {
                        continue;
                    }
                    if let Some(path) = self.reactor_path_to_sink(call, (*fi, gi), &exempt) {
                        findings.push(Finding {
                            file: m.rel_path.clone(),
                            line: call.line,
                            col: call.col,
                            rule: "LT09",
                            snippet: String::new(),
                            suggestion: format!(
                                "reactor thread reaches blocking network I/O ({path}); one \
                                 blocked reactor stalls every connection on its shard — hand \
                                 the work to the handler pool via offload (see DESIGN.md §14)"
                            ),
                        });
                    }
                }
            }
        }
        findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
        findings.dedup_by(|a, b| a.file == b.file && a.line == b.line && a.col == b.col);
        findings
    }

    /// BFS from one reactor-thread call to a *blocking* network sink:
    /// `TcpStream::connect*` or any fn in `cluster/forward.rs`. Unlike
    /// [`Self::path_to_sink`], `has_network` alone is not a sink (the
    /// reactor owns its non-blocking sockets), and exempt-enclosed calls
    /// are skipped at every hop, not just the root.
    fn reactor_path_to_sink(
        &self,
        root: &crate::model::CallSite,
        caller: FnRef,
        exempt: &BTreeSet<&str>,
    ) -> Option<String> {
        let is_blocking_tcp = |c: &crate::model::CallSite| {
            c.qualifier.as_deref() == Some("TcpStream") && c.name.starts_with("connect")
        };
        if is_blocking_tcp(root) {
            return Some(format!("direct TcpStream::{} call", root.name));
        }
        let all: Vec<&FileModel> = self.files.iter().map(|(_, m)| *m).collect();
        let locate = |r: FnRef| -> Option<(&FileModel, &FnModel)> {
            let (pos, _) = self
                .files
                .iter()
                .enumerate()
                .find(|(_, (fi, _))| *fi == r.0)?;
            let m = all[pos];
            m.fns.get(r.1).map(|f| (m, f))
        };
        let mut queue: VecDeque<(FnRef, Vec<String>)> = VecDeque::new();
        let mut seen: BTreeSet<FnRef> = BTreeSet::new();
        for callee in self.resolve(&root.name, caller) {
            if seen.insert(callee) {
                queue.push_back((callee, Vec::new()));
            }
        }
        while let Some((r, path)) = queue.pop_front() {
            let Some((m, f)) = locate(r) else { continue };
            if m.rel_path.ends_with("cluster/forward.rs") {
                let mut chain = path.join(" -> ");
                if chain.is_empty() {
                    chain = f.name.clone();
                } else {
                    chain = format!("{chain} -> {}", f.name);
                }
                return Some(format!("{chain} at {}:{}", m.rel_path, f.line));
            }
            if path.len() > 16 {
                continue; // defensive bound; real chains are short
            }
            for call in &f.calls {
                if call
                    .enclosing_args
                    .iter()
                    .any(|n| exempt.contains(n.as_str()))
                {
                    continue; // runs on a handler/worker thread, not here
                }
                if is_blocking_tcp(call) {
                    let chain: Vec<&str> = path
                        .iter()
                        .map(String::as_str)
                        .chain([f.name.as_str()])
                        .collect();
                    return Some(format!(
                        "{} -> TcpStream::{} at {}:{}",
                        chain.join(" -> "),
                        call.name,
                        m.rel_path,
                        call.line
                    ));
                }
                for callee in self.resolve(&call.name, r) {
                    if seen.insert(callee) {
                        let mut next = path.clone();
                        next.push(f.name.clone());
                        queue.push_back((callee, next));
                    }
                }
            }
        }
        None
    }
}

/// One finding per cycle family in the lock-order graph: compute strongly
/// connected components; each SCC with an internal cycle is reported once,
/// anchored at its lexicographically first edge, with a reconstructed
/// witness cycle in the suggestion.
fn cycle_findings(edges: &BTreeMap<String, BTreeMap<String, LockEdge>>) -> Vec<Finding> {
    let nodes: BTreeSet<&String> = edges
        .keys()
        .chain(edges.values().flat_map(|m| m.keys()))
        .collect();

    // Reachability via iterative DFS (the graphs are tiny).
    let reaches = |from: &str, to: &str| -> bool {
        let mut stack = vec![from];
        let mut seen = BTreeSet::new();
        while let Some(n) = stack.pop() {
            if let Some(next) = edges.get(n) {
                for m in next.keys() {
                    if m == to {
                        return true;
                    }
                    if seen.insert(m.as_str()) {
                        stack.push(m);
                    }
                }
            }
        }
        false
    };

    // SCC by mutual reachability; fine at this scale.
    let mut assigned: BTreeSet<&str> = BTreeSet::new();
    let mut findings = Vec::new();
    for &node in &nodes {
        if assigned.contains(node.as_str()) {
            continue;
        }
        let mut comp: Vec<&str> = vec![node.as_str()];
        for &other in &nodes {
            if other != node
                && !assigned.contains(other.as_str())
                && reaches(node, other)
                && reaches(other, node)
            {
                comp.push(other.as_str());
            }
        }
        let cyclic = comp.len() > 1 || reaches(node, node);
        if !cyclic {
            continue;
        }
        for c in &comp {
            assigned.insert(c);
        }
        // Anchor: the lexicographically first edge inside the component.
        let mut anchor: Option<(&str, &LockEdge)> = None;
        for from in &comp {
            if let Some(next) = edges.get(*from) {
                for e in next.values() {
                    if !comp.contains(&e.to.as_str()) {
                        continue;
                    }
                    let better = match anchor {
                        None => true,
                        Some((_, a)) => {
                            (e.file.as_str(), e.line, e.col) < (a.file.as_str(), a.line, a.col)
                        }
                    };
                    if better {
                        anchor = Some((from, e));
                    }
                }
            }
        }
        let Some((from, edge)) = anchor else { continue };
        let witness = witness_cycle(edges, from, &edge.to, &comp);
        findings.push(Finding {
            file: edge.file.clone(),
            line: edge.line,
            col: edge.col,
            rule: "LT08",
            snippet: String::new(),
            suggestion: format!(
                "lock-order cycle: {witness}; pick one acquisition order (see the lock-order \
                 note in cluster/mod.rs) and restructure so every path agrees"
            ),
        });
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
    findings
}

/// Reconstruct a printable cycle `from -> to -> ... -> from`, each hop
/// annotated with its witness site.
fn witness_cycle(
    edges: &BTreeMap<String, BTreeMap<String, LockEdge>>,
    from: &str,
    to: &str,
    comp: &[&str],
) -> String {
    // BFS from `to` back to `from`, inside the component.
    let mut parent: BTreeMap<&str, (&str, &LockEdge)> = BTreeMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(to);
    while let Some(n) = queue.pop_front() {
        if n == from {
            break;
        }
        if let Some(next) = edges.get(n) {
            for (m, e) in next {
                if comp.contains(&m.as_str()) && !parent.contains_key(m.as_str()) && m != to {
                    parent.insert(m.as_str(), (n, e));
                    queue.push_back(m.as_str());
                }
            }
        }
    }
    let hop = |e: &LockEdge| -> String {
        match &e.via {
            Some(via) => format!("{}:{} via {via}()", e.file, e.line),
            None => format!("{}:{}", e.file, e.line),
        }
    };
    let first = &edges[from][to];
    let mut s = format!("{from} -> {to} ({})", hop(first));
    // Walk parents from `from` backwards to `to`, then reverse the hops.
    let mut hops: Vec<(String, String)> = Vec::new(); // (to-lock, site)
    let mut cur = from;
    while cur != to {
        let Some((prev, e)) = parent.get(cur) else {
            break;
        };
        hops.push((cur.to_string(), hop(e)));
        cur = prev;
    }
    for (lock, site) in hops.into_iter().rev() {
        s.push_str(&format!(" -> {lock} ({site})"));
    }
    if to != from {
        // Close the loop textually when the path walk produced hops;
        // a two-lock cycle reads `a -> b (..) -> a (..)`.
        if !s.ends_with(&format!("-> {from} ({})", hop(first)))
            && !s.contains(&format!("-> {from} ("))
        {
            if let Some(back) = edges.get(to).and_then(|m| m.get(from)) {
                s.push_str(&format!(" -> {from} ({})", hop(back)));
            }
        }
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::build;
    use crate::rules::FileCtx;
    use crate::scope::annotate;

    fn model_of(rel: &'static str, src: &str) -> FileModel {
        let (kind, crate_name) = crate::rules::classify(rel);
        let ctx = FileCtx {
            rel_path: rel,
            kind,
            crate_name,
        };
        build(&ctx, &annotate(crate::lexer::lex(src)))
    }

    fn run(files: Vec<(&'static str, &str)>) -> Vec<Finding> {
        let models: Vec<FileModel> = files
            .into_iter()
            .map(|(rel, src)| model_of(rel, src))
            .collect();
        let refs: Vec<&FileModel> = models.iter().collect();
        workspace_findings(&refs)
    }

    #[test]
    fn direct_two_lock_cycle_is_one_finding_with_witness() {
        let src = "impl S {\n\
            fn ab(&self) { let a = lock_ok(&self.alpha); let _b = lock_ok(&self.beta); }\n\
            fn ba(&self) { let b = lock_ok(&self.beta); let _a = lock_ok(&self.alpha); }\n\
        }\n";
        let f = run(vec![("crates/service/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "LT08");
        assert!(f[0].suggestion.contains("alpha"), "{}", f[0].suggestion);
        assert!(f[0].suggestion.contains("beta"), "{}", f[0].suggestion);
    }

    #[test]
    fn cross_fn_edge_closes_a_cycle() {
        // `hold_b` holds beta and calls `locks_alpha`; `ab` nests directly.
        let src = "impl S {\n\
            fn ab(&self) { let a = lock_ok(&self.alpha); let _b = lock_ok(&self.beta); }\n\
            fn hold_b(&self) { let b = lock_ok(&self.beta); self.locks_alpha(); }\n\
            fn locks_alpha(&self) { let _a = lock_ok(&self.alpha); }\n\
        }\n";
        let f = run(vec![("crates/service/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(
            f[0].suggestion.contains("via locks_alpha()"),
            "{}",
            f[0].suggestion
        );
    }

    #[test]
    fn consistent_order_is_clean() {
        let src = "impl S {\n\
            fn one(&self) { let m = lock_ok(&self.membership); let _r = lock_ok(&self.ring); }\n\
            fn two(&self) { let m = lock_ok(&self.membership); self.rebuild(); }\n\
            fn rebuild(&self) { let _r = lock_ok(&self.ring); }\n\
        }\n";
        assert!(run(vec![("crates/service/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn scoped_inner_guard_does_not_create_edges() {
        let src = "impl S {\n\
            fn f(&self) {\n\
              { let c = lock_ok(&self.cache); if c.0 == g { return c.1; } }\n\
              let _s = lock_ok(&self.shard);\n\
              { let mut c = lock_ok(&self.cache); *c = v; }\n\
            }\n\
        }\n";
        assert!(run(vec![("crates/service/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn pool_closure_reaching_tcp_is_flagged() {
        let src = "fn relay(pool: &P, addr: String) {\n\
            pool.execute(move || leak(&addr));\n\
        }\n\
        fn leak(addr: &str) {\n\
            let _s = TcpStream::connect(addr);\n\
        }\n";
        let f = run(vec![("crates/service/src/x.rs", src)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "LT09");
        assert!(f[0].suggestion.contains("leak"), "{}", f[0].suggestion);
    }

    #[test]
    fn let_bound_job_and_derived_dispatcher_are_tracked() {
        let src = "fn run_on_pool<F>(state: &S, f: F) { state.pool.execute(move || f(state)); }\n\
        fn handler(state: &S) {\n\
            let job = { move |s| probe(s) };\n\
            run_on_pool(state, job);\n\
        }\n\
        fn probe(s: &S) { forward_exchange(s); }\n\
        fn forward_exchange(s: &S) { TcpStream::connect(\"x\"); }\n";
        let f = run(vec![("crates/service/src/x.rs", src)]);
        assert!(
            f.iter().any(|x| x.rule == "LT09" && x.line == 3),
            "job initializer call flagged: {f:?}"
        );
    }

    #[test]
    fn connection_thread_spawn_is_not_a_dispatcher() {
        let src = "fn serve(s: &S) {\n\
            std::thread::scope(|sc| { sc.spawn(move || exchange(s)); });\n\
        }\n\
        fn exchange(s: &S) { TcpStream::connect(\"x\"); }\n";
        assert!(run(vec![("crates/service/src/x.rs", src)]).is_empty());
    }

    #[test]
    fn reactor_fn_reaching_connect_is_flagged() {
        // `pump` runs on a reactor thread; `probe_peer` (another file, so
        // its own body is not itself a reactor region) dials out.
        let f = run(vec![
            (
                "crates/service/src/reactor.rs",
                "fn pump(state: &S) { probe_peer(state); }\n",
            ),
            (
                "crates/service/src/server.rs",
                "fn probe_peer(s: &S) { let _x = TcpStream::connect(\"x\"); }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "LT09");
        assert!(f[0].suggestion.contains("reactor"), "{}", f[0].suggestion);
        assert!(
            f[0].suggestion.contains("probe_peer"),
            "{}",
            f[0].suggestion
        );
    }

    #[test]
    fn reactor_fn_reaching_forward_module_is_flagged() {
        let f = run(vec![
            (
                "crates/service/src/reactor.rs",
                "fn pump(state: &S) { answer(state); }\n",
            ),
            (
                "crates/service/src/server.rs",
                "fn answer(s: &S) { exchange_hint(s); }\n",
            ),
            (
                "crates/service/src/cluster/forward.rs",
                "fn exchange_hint(s: &S) { probe(s); }\n",
            ),
        ]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "LT09");
        assert!(
            f[0].suggestion.contains("exchange_hint"),
            "{}",
            f[0].suggestion
        );
    }

    #[test]
    fn reactor_offload_closure_may_block() {
        // The closure handed to `offload` runs on a handler thread —
        // exempt at the root (in reactor.rs) and at every later hop
        // (route-like helpers in other files).
        let f = run(vec![
            (
                "crates/service/src/reactor.rs",
                "fn pump(state: &S) { state.handlers.offload(move || relay(state)); \
                 route_like(state); }\n",
            ),
            (
                "crates/service/src/server.rs",
                "fn route_like(s: &S) { s.handlers.offload(move || relay(s)); }\n\
                 fn relay(s: &S) { let _x = TcpStream::connect(\"x\"); }\n",
            ),
        ]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn reactor_nonblocking_socket_io_is_not_a_sink() {
        // Reactor fns own their sockets; read/write on them (and helpers
        // that merely mention TcpStream in their body) are fine — only
        // `connect` and `cluster/forward.rs` are blocking sinks.
        let f = run(vec![(
            "crates/service/src/reactor.rs",
            "fn pump(conn: &mut Conn) { let mut buf = [0u8; 4096]; pump_read(conn); }\n\
             fn pump_read(conn: &mut Conn) { let s: &TcpStream = &conn.stream; \
             let _n = s.peek(&mut buf); }\n",
        )]);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn non_service_crates_are_out_of_scope() {
        let src = "fn ab(&self) { let a = lock_ok(&self.alpha); let _b = lock_ok(&self.beta); }\n\
                   fn ba(&self) { let b = lock_ok(&self.beta); let _a = lock_ok(&self.alpha); }\n";
        assert!(run(vec![("crates/core/src/x.rs", src)]).is_empty());
    }
}
