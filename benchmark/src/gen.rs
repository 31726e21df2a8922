//! Seeded input generation. Request `i` of a workload's stream is a
//! pure function of `(seed, i)`, and the generators live here rather
//! than in the crates under test so that a later change to
//! `random_hypergraph` (or to the paper-query constants) cannot silently
//! change what the benchmark sends.

use softhw_service::{BatchRequest, BodyFormat, EvalKind, Request, RequestClass};
use std::sync::Arc;

/// splitmix64: the one mixing function behind every seeded choice.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small deterministic generator keyed by `(seed, stream tag, index)`.
pub struct Rng(u64);

impl Rng {
    pub fn keyed(seed: u64, tag: u64, index: u64) -> Rng {
        Rng(mix(mix(mix(seed) ^ tag) ^ index))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n ≥ 1`); the modulo bias at these sizes is
    /// below 2⁻⁵⁰ and irrelevant to a load mix.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The request classes the serving workloads draw from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    Shw,
    ShwLeq2,
    Hw,
    BestConcov2,
    Stats,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Shw,
        Class::ShwLeq2,
        Class::Hw,
        Class::BestConcov2,
        Class::Stats,
    ];

    /// The metric-name fragment of the class (`service.class.<label>_p50_us`).
    pub fn label(self) -> &'static str {
        match self {
            Class::Shw => "shw",
            Class::ShwLeq2 => "shw_leq",
            Class::Hw => "hw",
            Class::BestConcov2 => "best",
            Class::Stats => "stats",
        }
    }

    pub fn index(self) -> usize {
        self as usize
    }

    pub fn wire(self) -> RequestClass {
        match self {
            Class::Shw => RequestClass::Shw,
            Class::ShwLeq2 => RequestClass::ShwLeq(2),
            Class::Hw => RequestClass::Hw,
            Class::BestConcov2 => RequestClass::Best(EvalKind::ConCov, 2),
            Class::Stats => RequestClass::Stats,
        }
    }

    /// The status-line prefix a correct answer starts with.
    pub fn ok_prefix(self) -> &'static str {
        match self {
            Class::Shw => "OK SHW ",
            Class::ShwLeq2 => "OK SHW_LEQ ",
            Class::Hw => "OK HW ",
            Class::BestConcov2 => "OK BEST ",
            Class::Stats => "OK STATS ",
        }
    }

    /// Draws a class from integer weights given in [`Class::ALL`] order.
    pub fn draw(rng: &mut Rng, weights: [u64; 5]) -> Class {
        let total: u64 = weights.iter().sum();
        let mut pick = rng.below(total);
        for (class, w) in Class::ALL.into_iter().zip(weights) {
            if pick < w {
                return class;
            }
            pick -= w;
        }
        Class::Shw
    }
}

/// One schema text and how to read it.
#[derive(Clone, Debug)]
pub struct Schema {
    pub body: Arc<str>,
    pub sql: bool,
}

/// One stream item: a schema under a class. `slot` identifies a
/// working-set entry (schema index) when the schema is drawn from a
/// fixed set, so repeated answers can be compared with their first.
#[derive(Clone, Debug)]
pub struct Req {
    pub class: Class,
    pub schema: Schema,
    pub slot: Option<u32>,
}

impl Req {
    pub fn wire(&self) -> Request {
        let mut r = Request::new(self.class.wire(), &*self.schema.body);
        if self.schema.sql {
            r.format = BodyFormat::Sql;
        }
        r
    }

    pub fn frame(&self) -> Vec<u8> {
        self.wire().encode().into_bytes()
    }
}

/// The `BATCH n` frame over `items`.
pub fn batch_frame(items: &[Req]) -> Vec<u8> {
    BatchRequest::new(items.iter().map(Req::wire).collect())
        .encode()
        .into_bytes()
}

/// The shape of a schema before vertices are named: edges as vertex
/// index lists.
#[derive(Clone, Debug)]
pub struct Shape {
    vertices: usize,
    edges: Vec<Vec<usize>>,
}

/// Seed of the shape pools. The pools are the same for every `--seed`:
/// solver cost is heavy-tailed in the shape (one 16-edge width-3 schema
/// costs as much as a hundred 12-edge ones), so pools redrawn per seed
/// would make runs with different seeds incomparable. The run's seed
/// decides how each shape is named and ordered — which is all the
/// server's caches can tell apart — and which shape is asked when.
const POOL_SEED: u64 = 0x50f7_4877;

impl Shape {
    /// A connected random shape: `edges` edges of arity 2–3 over
    /// `vertices` vertices; vertices left uncovered and separate
    /// components are joined to vertex 0 with 2-edges, so every shape is
    /// one connected component (the paper's standing assumption).
    fn random(rng: &mut Rng, vertices: usize, edges: usize) -> Shape {
        let mut list: Vec<Vec<usize>> = Vec::with_capacity(edges + 4);
        for _ in 0..edges {
            let arity = 2 + rng.below(2) as usize;
            let mut vs: Vec<usize> = Vec::with_capacity(arity);
            while vs.len() < arity {
                let v = rng.below(vertices as u64) as usize;
                if !vs.contains(&v) {
                    vs.push(v);
                }
            }
            list.push(vs);
        }
        let mut parent: Vec<usize> = (0..vertices).collect();
        fn find(parent: &mut [usize], mut v: usize) -> usize {
            while parent[v] != v {
                parent[v] = parent[parent[v]];
                v = parent[v];
            }
            v
        }
        for vs in &list {
            for w in &vs[1..] {
                let (a, b) = (find(&mut parent, vs[0]), find(&mut parent, *w));
                parent[a] = b;
            }
        }
        for v in 1..vertices {
            let (a, b) = (find(&mut parent, 0), find(&mut parent, v));
            if a != b {
                list.push(vec![0, v]);
                parent[a] = b;
            }
        }
        Shape {
            vertices,
            edges: list,
        }
    }

    /// The fixed pool `pool` of `n` shapes whose edge counts cycle
    /// through `sizes` (as many vertices as edges).
    pub fn pool(pool: u64, n: usize, sizes: &[usize]) -> Vec<Shape> {
        (0..n)
            .map(|j| {
                let size = sizes[j % sizes.len()];
                Shape::random(&mut Rng::keyed(POOL_SEED, pool, j as u64), size, size)
            })
            .collect()
    }

    /// This shape as HyperBench text under a random naming: vertex
    /// names, edge order and the order inside each edge are all drawn
    /// from `rng`. Two namings of one shape are isomorphic, cost the
    /// solvers the same, and are different schemas to every cache (the
    /// structural hash depends on the vertex numbering).
    pub fn named(&self, rng: &mut Rng) -> Schema {
        let mut names: Vec<usize> = (0..self.vertices).collect();
        shuffle(rng, &mut names);
        let mut order: Vec<usize> = (0..self.edges.len()).collect();
        shuffle(rng, &mut order);
        let mut body = String::with_capacity(self.edges.len() * 16);
        for (pos, &e) in order.iter().enumerate() {
            let mut vs = self.edges[e].clone();
            shuffle(rng, &mut vs);
            let vs: Vec<String> = vs.iter().map(|&v| format!("v{}", names[v])).collect();
            let sep = if pos + 1 == order.len() { "." } else { "," };
            body.push_str(&format!("e{pos}({}){sep}\n", vs.join(",")));
        }
        Schema {
            body: body.into(),
            sql: false,
        }
    }
}

/// Fisher–Yates.
pub fn shuffle<T>(rng: &mut Rng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
    }
}

/// The six benchmark queries of the paper's Appendix D.2, frozen here as
/// inputs (sent as `sql` bodies by `serve_warm`). `q_ds` has its columns
/// qualified: the service reads SQL without a catalogue, where the
/// paper's unqualified form is ambiguous.
pub const PAPER_SQL: [&str; 6] = [
    "SELECT MIN(web_sales.ws_bill_customer_sk) \
     FROM web_sales, customer, customer_address, catalog_sales, warehouse \
     WHERE web_sales.ws_bill_customer_sk = customer.c_customer_sk \
     AND customer_address.ca_address_sk = customer.c_current_addr_sk \
     AND customer.c_current_addr_sk = catalog_sales.cs_bill_addr_sk \
     AND catalog_sales.cs_warehouse_sk = warehouse.w_warehouse_sk \
     AND warehouse.w_warehouse_sq_ft = web_sales.ws_quantity",
    "SELECT MIN(hetio45173_0.s) \
     FROM hetio45173 AS hetio45173_0, hetio45173 AS hetio45173_1, \
     hetio45160 AS hetio45160_2, hetio45160 AS hetio45160_3, \
     hetio45160 AS hetio45160_4, hetio45159 AS hetio45159_5, \
     hetio45159 AS hetio45159_6 \
     WHERE hetio45173_0.s = hetio45173_1.s AND hetio45173_0.d = hetio45160_2.s AND \
     hetio45173_1.d = hetio45160_3.s AND hetio45160_2.d = hetio45160_3.d AND \
     hetio45160_3.d = hetio45160_4.s AND hetio45160_4.s = hetio45159_5.s AND \
     hetio45160_4.d = hetio45159_6.s AND hetio45159_5.d = hetio45159_6.d",
    "SELECT MAX(hetio45160.d) \
     FROM hetio45173 AS hetio45173_0, hetio45173 AS hetio45173_1, hetio45173 AS \
     hetio45173_2, hetio45173 AS hetio45173_3, hetio45160, hetio45176 AS \
     hetio45176_5, hetio45176 AS hetio45176_6 \
     WHERE hetio45173_0.s = hetio45173_1.s AND hetio45173_0.d = hetio45173_2.s AND \
     hetio45173_1.d = hetio45173_3.s AND hetio45173_2.d = hetio45173_3.d AND \
     hetio45173_3.d = hetio45160.s AND hetio45160.s = hetio45176_5.s AND \
     hetio45160.d = hetio45176_6.s AND hetio45176_5.d = hetio45176_6.d",
    "SELECT MIN(hetio45173_2.d) \
     FROM hetio45173 AS hetio45173_0, hetio45173 AS hetio45173_1, hetio45173 AS \
     hetio45173_2, hetio45173 AS hetio45173_3 \
     WHERE hetio45173_0.s = hetio45173_1.s AND hetio45173_0.d = hetio45173_2.s \
     AND hetio45173_1.d = hetio45173_3.d AND hetio45173_2.d = hetio45173_3.s",
    "SELECT MIN(hetio45160_0.s) \
     FROM hetio45160 AS hetio45160_0, hetio45160 AS hetio45160_1, \
     hetio45177, hetio45160 AS hetio45160_3, hetio45159 AS \
     hetio45159_4, hetio45159 AS hetio45159_5 \
     WHERE hetio45160_0.s = hetio45160_1.s AND hetio45160_0.d = hetio45177.s \
     AND hetio45160_1.d = hetio45177.d AND hetio45177.d = hetio45160_3.s \
     AND hetio45160_3.s = hetio45159_4.s AND hetio45160_3.d = hetio45159_5.s \
     AND hetio45159_4.d = hetio45159_5.d",
    "SELECT MIN(pkp1.Person1Id) \
     FROM City AS CityA \
     JOIN City AS CityB ON CityB.isPartOf_CountryId = CityA.isPartOf_CountryId \
     JOIN City AS CityC ON CityC.isPartOf_CountryId = CityA.isPartOf_CountryId \
     JOIN Person AS PersonA ON PersonA.isLocatedIn_CityId = CityA.CityId \
     JOIN Person AS PersonB ON PersonB.isLocatedIn_CityId = CityB.CityId \
     JOIN Person_knows_Person AS pkp1 ON pkp1.Person1Id = PersonA.PersonId \
     AND pkp1.Person2Id = PersonB.PersonId",
];

/// A Zipf(s = 1) sampler over ranks `0..n`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 1..=n {
            acc += 1.0 / r as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn draw(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// A workload's request stream: item `i` depends on `(seed, i)` only.
pub trait Stream {
    fn req(&self, i: u64) -> Req;

    /// Requests answered once in set-up, before the clock starts.
    fn warm_up(&self) -> Vec<Req> {
        Vec::new()
    }
}

/// FNV-1a digest of the first `n` encoded requests of a stream — what
/// the determinism tests (and the output JSON) pin a seed's inputs by.
pub fn stream_digest(stream: &dyn Stream, n: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for i in 0..n {
        for b in stream.req(i).frame() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use softhw_hypergraph::parse_hypergraph;

    #[test]
    fn pool_shapes_are_connected_and_parse_under_any_naming() {
        let pool = Shape::pool(9, 120, &[8, 12, 16]);
        for (j, shape) in pool.iter().enumerate() {
            let s = shape.named(&mut Rng::keyed(7, 1, j as u64));
            let h = parse_hypergraph(&s.body).expect("generated schema parses");
            assert!(h.num_edges() >= [8, 12, 16][j % 3]);
            assert_eq!(h.vertex_components(&h.empty_vertex_set()).len(), 1);
        }
    }

    #[test]
    fn namings_of_one_shape_are_isomorphic_but_distinct_schemas() {
        use softhw_hypergraph::structural_hash;
        let shape = &Shape::pool(9, 1, &[12])[0];
        let parse = |seed| {
            parse_hypergraph(&shape.named(&mut Rng::keyed(seed, 0, 0)).body).expect("parses")
        };
        let (a, b) = (parse(1), parse(2));
        assert_eq!(a.num_edges(), b.num_edges());
        assert_eq!(a.num_vertices(), b.num_vertices());
        let arities = |h: &softhw_hypergraph::Hypergraph| {
            let mut v: Vec<usize> = (0..h.num_edges()).map(|e| h.edge(e).len()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(arities(&a), arities(&b));
        assert_ne!(structural_hash(&a), structural_hash(&b));
        // The pool itself does not depend on any run seed.
        assert_eq!(
            shape.named(&mut Rng::keyed(5, 0, 0)).body,
            Shape::pool(9, 1, &[12])[0]
                .named(&mut Rng::keyed(5, 0, 0))
                .body
        );
    }

    #[test]
    fn zipf_is_head_heavy_and_in_range() {
        let z = Zipf::new(2000);
        let mut head = 0;
        for i in 0..10_000 {
            let r = z.draw(&mut Rng::keyed(3, 2, i));
            assert!(r < 2000);
            if r < 20 {
                head += 1;
            }
        }
        // H(20)/H(2000) ≈ 0.44.
        assert!((3_900..4_900).contains(&head), "head draws: {head}");
    }

    #[test]
    fn class_draw_follows_weights() {
        let mut counts = [0u32; 5];
        for i in 0..10_000 {
            counts[Class::draw(&mut Rng::keyed(1, 3, i), [4, 2, 2, 1, 1]).index()] += 1;
        }
        assert!((3_700..4_300).contains(&counts[0]));
        assert!((800..1_200).contains(&counts[4]));
    }
}
