//! Seeded inputs: tree shapes, their representations, and weights.
//!
//! The library only ever sees the generated inputs; the seed stays here.

use crate::reference::HostTree;
use mpc_tree_dp::gen::shapes;
use mpc_tree_dp::repr::{Paren, Tree};
use mpc_tree_dp::{ListOfEdges, StringOfParentheses, TreeInput};

/// SplitMix64: a small, fast, well-mixed generator for weights and choices.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose, derived from the run seed and a stream id.
    pub fn new(seed: u64, stream: &[u64]) -> Self {
        let mut r = Rng(seed ^ 0x9e37_79b9_7f4a_7c15);
        for &s in stream {
            r.0 ^= s.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            r.next();
        }
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % (hi - lo + 1) as u64) as i64
    }

    /// Uniform index in `0..n`.
    pub fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// `n` weights in `1..=100`.
    pub fn weights(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| self.range(1, 100)).collect()
    }
}

/// The tree shapes the workloads draw from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Path,
    Star,
    Caterpillar,
    Broom,
    RandomRecursive,
    Diameter8,
}

impl Shape {
    pub const ALL: [Shape; 6] = [
        Shape::Path,
        Shape::Star,
        Shape::Caterpillar,
        Shape::Broom,
        Shape::RandomRecursive,
        Shape::Diameter8,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Shape::Path => "path",
            Shape::Star => "star",
            Shape::Caterpillar => "caterpillar",
            Shape::Broom => "broom",
            Shape::RandomRecursive => "random-recursive",
            Shape::Diameter8 => "diameter-8",
        }
    }

    /// A tree of this shape with `n` nodes; only the random shapes use `seed`.
    pub fn tree(self, n: usize, seed: u64) -> Tree {
        match self {
            Shape::Path => shapes::path(n),
            Shape::Star => shapes::star(n),
            Shape::Caterpillar => shapes::caterpillar(n / 4, 3),
            Shape::Broom => shapes::broom(n / 2, n - n / 2),
            Shape::RandomRecursive => shapes::random_recursive(n, seed),
            Shape::Diameter8 => shapes::with_diameter(n, 8, seed),
        }
    }
}

/// How a tree reaches the library.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Repr {
    Edges,
    Parens,
}

/// One tree ready to hand to `prepare`, with what the checks need.
pub struct TreeCase {
    pub shape: Shape,
    pub label: String,
    pub input: TreeInput,
    pub host: HostTree,
    /// `ids[v]`: the library's node id of host node `v`.
    pub ids: Vec<u64>,
}

impl TreeCase {
    pub fn new(shape: Shape, repr: Repr, n: usize, seed: u64) -> Self {
        Self::of(shape, &shape.tree(n, seed), repr)
    }

    /// `tree`, labelled as a tree of `shape`, in representation `repr`.
    pub fn of(shape: Shape, tree: &Tree, repr: Repr) -> Self {
        let host = HostTree::from_parents((0..tree.len()).map(|v| tree.parent(v)).collect());
        let (input, ids) = match repr {
            Repr::Edges => (
                TreeInput::ListOfEdges(ListOfEdges::from_tree(tree)),
                (0..tree.len() as u64).collect(),
            ),
            Repr::Parens => {
                // The library numbers nodes by the position of their opening
                // parenthesis; the string lists nodes in DFS preorder.
                let parens = StringOfParentheses::from_tree(tree);
                let opens = parens
                    .0
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| **p == Paren::Open)
                    .map(|(i, _)| i as u64);
                let mut ids = vec![0u64; tree.len()];
                for (v, id) in tree.dfs_preorder().into_iter().zip(opens) {
                    ids[v] = id;
                }
                (TreeInput::StringOfParentheses(parens), ids)
            }
        };
        let repr_name = match repr {
            Repr::Edges => "edges",
            Repr::Parens => "parens",
        };
        Self {
            shape,
            label: format!("{}-{}-{repr_name}", shape.name(), tree.len()),
            input,
            host,
            ids,
        }
    }
}
