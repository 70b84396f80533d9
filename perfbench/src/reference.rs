//! Reference answers computed apart from the library: plain O(n) host-side tree
//! DPs for the four Table-1 problems the benchmark rotates through, plus
//! feasibility checks of reported MaxIS / MinVC labels.
//!
//! Nothing here calls into the library; the trees are plain parent arrays.

/// Large enough to dominate any sum of benchmark weights, small enough to add.
const INF: i64 = i64::MAX / 4;

/// A rooted tree as a parent array over dense indices `0..n`.
#[derive(Debug, Clone)]
pub struct HostTree {
    parent: Vec<Option<usize>>,
    /// Every node after all of its children.
    postorder: Vec<usize>,
    /// CSR child lists.
    child_start: Vec<usize>,
    child_list: Vec<usize>,
}

impl HostTree {
    /// Build from a parent array with exactly one `None` (the root).
    ///
    /// # Panics
    /// Panics when the array does not describe one tree.
    pub fn from_parents(parent: Vec<Option<usize>>) -> Self {
        let n = parent.len();
        let mut count = vec![0usize; n + 1];
        let mut root = None;
        for (v, p) in parent.iter().enumerate() {
            match p {
                Some(p) => count[*p + 1] += 1,
                None => {
                    assert!(root.is_none(), "two roots in a reference tree");
                    root = Some(v);
                }
            }
        }
        for i in 0..n {
            count[i + 1] += count[i];
        }
        let child_start = count.clone();
        let mut fill = count;
        let mut child_list = vec![0usize; n.saturating_sub(1)];
        for (v, p) in parent.iter().enumerate() {
            if let Some(p) = p {
                child_list[fill[*p]] = v;
                fill[*p] += 1;
            }
        }
        let root = root.expect("a reference tree has a root");
        // Iterative DFS; reversing a parent-before-child order gives a postorder.
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            order.push(v);
            stack.extend_from_slice(&child_list[child_start[v]..child_start[v + 1]]);
        }
        assert_eq!(order.len(), n, "reference tree is not connected");
        order.reverse();
        Self {
            parent,
            postorder: order,
            child_start,
            child_list,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Parent of `v` (`None` for the root).
    pub fn parent(&self, v: usize) -> Option<usize> {
        self.parent[v]
    }

    fn children(&self, v: usize) -> &[usize] {
        &self.child_list[self.child_start[v]..self.child_start[v + 1]]
    }

    fn root(&self) -> usize {
        *self.postorder.last().expect("non-empty tree")
    }
}

/// Maximum weight of an independent set.
pub fn max_is(t: &HostTree, w: &[i64]) -> i64 {
    let (mut take, mut skip) = (vec![0i64; t.len()], vec![0i64; t.len()]);
    for &v in &t.postorder {
        take[v] = w[v];
        for &c in t.children(v) {
            take[v] += skip[c];
            skip[v] += take[c].max(skip[c]);
        }
    }
    let r = t.root();
    take[r].max(skip[r])
}

/// Minimum weight of a vertex cover.
pub fn min_vc(t: &HostTree, w: &[i64]) -> i64 {
    let (mut take, mut skip) = (vec![0i64; t.len()], vec![0i64; t.len()]);
    for &v in &t.postorder {
        take[v] = w[v];
        for &c in t.children(v) {
            take[v] += take[c].min(skip[c]);
            skip[v] += take[c];
        }
    }
    let r = t.root();
    take[r].min(skip[r])
}

/// Minimum weight of a dominating set.
pub fn min_ds(t: &HostTree, w: &[i64]) -> i64 {
    let n = t.len();
    // in_set: v chosen; covered: v out, dominated by a child; open: v out and
    // not dominated by any child (its parent must be chosen).
    let (mut in_set, mut covered, mut open) = (vec![0i64; n], vec![INF; n], vec![0i64; n]);
    for &v in &t.postorder {
        let (mut sum_any, mut sum_done, mut best_switch) = (0i64, 0i64, INF);
        for &c in t.children(v) {
            sum_any += in_set[c].min(covered[c]).min(open[c]);
            let done = in_set[c].min(covered[c]);
            sum_done += done;
            best_switch = best_switch.min(in_set[c] - done);
            open[v] = (open[v] + covered[c]).min(INF);
        }
        in_set[v] = w[v] + sum_any;
        if best_switch < INF {
            covered[v] = sum_done + best_switch;
        }
    }
    let r = t.root();
    in_set[r].min(covered[r])
}

/// Maximum weight of a matching; `ew[v]` weighs the edge from `v` to its parent.
pub fn max_matching(t: &HostTree, ew: &[i64]) -> i64 {
    let (mut free, mut matched) = (vec![0i64; t.len()], vec![-INF; t.len()]);
    for &v in &t.postorder {
        for &c in t.children(v) {
            free[v] += free[c].max(matched[c]);
        }
        for &c in t.children(v) {
            let gain = free[c] + ew[c] - free[c].max(matched[c]);
            matched[v] = matched[v].max(free[v] + gain);
        }
    }
    let r = t.root();
    free[r].max(matched[r])
}

/// Weight of `chosen` if it is an independent set, else the first violated edge.
pub fn independent_set_weight(t: &HostTree, w: &[i64], chosen: &[bool]) -> Result<i64, String> {
    let mut total = 0;
    for v in 0..t.len() {
        if chosen[v] {
            if let Some(p) = t.parent(v) {
                if chosen[p] {
                    return Err(format!("labels put both ends of edge {v}->{p} in the set"));
                }
            }
            total += w[v];
        }
    }
    Ok(total)
}

/// Weight of `chosen` if it is a vertex cover, else the first uncovered edge.
pub fn vertex_cover_weight(t: &HostTree, w: &[i64], chosen: &[bool]) -> Result<i64, String> {
    let mut total = 0;
    for v in 0..t.len() {
        if let Some(p) = t.parent(v) {
            if !chosen[v] && !chosen[p] {
                return Err(format!("labels leave edge {v}->{p} uncovered"));
            }
        }
        if chosen[v] {
            total += w[v];
        }
    }
    Ok(total)
}
