//! Workload inputs. Every request a run sends is generated here from the
//! workload seed; the program under test receives only these scenarios.

use mccm::Scenario;

/// splitmix64: a small, stable generator, so a seed names the same
/// request stream on every platform and toolchain.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One request: its scenario JSON text and the parsed scenario.
pub struct Request {
    pub text: String,
    pub scenario: Scenario,
}

impl Request {
    fn new(text: String) -> Self {
        let scenario = Scenario::from_json_str(&text)
            .unwrap_or_else(|e| panic!("benchmark request does not parse: {e}\n{text}"));
        Self { text, scenario }
    }
}

const TEMPLATES: [&str; 3] = ["segmented", "segmentedrr", "hybrid"];

/// Depth-first notation designs in the style of
/// `examples/scenarios/depth_first.json`, on builtin boards.
const DEPTH_FIRST: [&str; 2] = [
    r#""schedule":{"mode":"depth_first","fuse_depth":4},"ces":[{},{"schedule":{"mode":"layer_by_layer"}}],"action":{"evaluate":{"notation":"{L1-L17: CE1, L18-Last: CE2}"}}"#,
    r#""schedule":{"mode":"depth_first","fuse_depth":2},"action":{"evaluate":{"notation":"{L1-L8: CE1, L9-L24: CE2, L25-Last: CE3}"}}"#,
];

/// Every scenario sets `workers` to 1: the daemon already runs two
/// workers, and the in-process callers run a request the way one of
/// them would.
fn scenario_text(model: &str, board: &str, body: &str) -> String {
    format!(r#"{{"model":{{"zoo":"{model}"}},"board":{{"builtin":"{board}"}},"workers":1,{body}}}"#)
}

/// The `serve-evaluate` design set: 4 models × 2 boards (8 contexts,
/// one worker session's capacity), each with the 18 template designs
/// (3 templates × CEs 2–7) and the two depth-first designs. Request `i`
/// belongs to context `i / PER_CONTEXT`.
pub struct Catalog {
    pub requests: Vec<Request>,
}

const PER_CONTEXT: usize = 20;

impl Catalog {
    pub fn serve_evaluate() -> Self {
        let mut requests = Vec::new();
        for model in ["resnet50", "xception", "mobilenetv2", "densenet121"] {
            for board in ["zc706", "vcu108"] {
                let templates = TEMPLATES.into_iter().flat_map(|t| {
                    (2..=7).map(move |ces| {
                        format!(r#""action":{{"evaluate":{{"template":"{t}","ces":{ces}}}}}"#)
                    })
                });
                let bodies = templates.chain(DEPTH_FIRST.iter().map(|s| s.to_string()));
                requests.extend(bodies.map(|b| Request::new(scenario_text(model, board, &b))));
            }
        }
        Self { requests }
    }

    pub fn contexts(&self) -> usize {
        self.requests.len() / PER_CONTEXT
    }

    /// Index of request `k` of context `c`.
    pub fn index(&self, c: usize, k: usize) -> usize {
        c * PER_CONTEXT + k
    }

    /// Fixed, seed-independent requests each run sends after its timed
    /// phase; their outcomes form the run's digest.
    pub fn probes(&self) -> Vec<usize> {
        (0..self.contexts())
            .map(|c| self.index(c, (c * 5 + 3) % PER_CONTEXT))
            .collect()
    }
}

/// Draws the indices `0..n` in seeded, shuffled blocks that each hold
/// every index once, so run-to-run differences come from order and
/// timing rather than from which requests a seed happened to draw.
pub struct Blocks {
    items: Vec<usize>,
    next: usize,
    rng: Rng,
}

impl Blocks {
    pub fn new(n: usize, seed: u64) -> Self {
        Self {
            items: (0..n).collect(),
            next: 0,
            rng: Rng::new(seed),
        }
    }

    pub fn draw(&mut self) -> usize {
        if self.next == 0 {
            // Fisher–Yates with the workload's own generator.
            for i in (1..self.items.len()).rev() {
                let j = self.rng.below(i + 1);
                self.items.swap(i, j);
            }
        }
        let item = self.items[self.next];
        self.next = (self.next + 1) % self.items.len();
        item
    }
}

/// The `calibrate` (model, board) pairs.
pub const CALIBRATE_PAIRS: [(&str, &str); 4] = [
    ("resnet50", "vcu108"),
    ("xception", "vcu110"),
    ("densenet121", "zcu102"),
    ("mobilenetv2", "zc706"),
];

/// The calibrate request for `CALIBRATE_PAIRS[pair]` under `seed`, with
/// no calibration store, so nothing touches disk.
pub fn calibrate_request(pair: usize, seed: u64) -> Request {
    let (model, board) = CALIBRATE_PAIRS[pair];
    Request::new(scenario_text(
        model,
        board,
        &format!(r#""seed":{seed},"action":{{"calibrate":{{"budget":200,"top_k":16}}}}"#),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blocks_hold_every_index_once() {
        let n = Catalog::serve_evaluate().requests.len();
        assert_eq!(n, 160);
        let block = |seed| {
            let mut blocks = Blocks::new(n, seed);
            let cells: Vec<usize> = (0..n).map(|_| blocks.draw()).collect();
            let mut sorted = cells.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..n).collect::<Vec<_>>());
            cells
        };
        assert_ne!(block(1), block(2), "seeds shuffle differently");
    }
}
