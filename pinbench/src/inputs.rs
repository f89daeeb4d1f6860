//! Seeded inputs: the generated programs each workload analyses, their
//! pinned digests, and the one-function edit script of the warm
//! workloads.

use pinpoint::workload::rng::SmallRng;
use pinpoint::workload::{fuzzgen, generate, GenConfig, Generated};

/// Sizes of every workload, in thousand source lines (the generators'
/// `--kloc`). `--smoke` divides them by 50.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub sparse_kloc: f64,
    /// The smaller `cold_sparse` input the traced run fits the scaling
    /// exponent and the parallel speed-up on.
    pub sparse_side_kloc: f64,
    pub dense_modules: usize,
    pub dense_kloc: f64,
    pub warm_kloc: f64,
    pub serve_kloc: f64,
}

impl Sizes {
    pub fn new(smoke: bool) -> Self {
        let scale = if smoke { 1.0 / 50.0 } else { 1.0 };
        Sizes {
            sparse_kloc: 1000.0 * scale,
            sparse_side_kloc: 250.0 * scale,
            dense_modules: if smoke { 3 } else { 12 },
            dense_kloc: if smoke { 1.0 } else { 10.0 },
            warm_kloc: 60.0 * scale,
            serve_kloc: 20.0 * scale,
        }
    }
}

/// FNV-1a, 64 bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A generator project in the `gen_project` configuration: 2 real and 2
/// decoy defects per kind, taint defects on.
pub fn project(seed: u64, kloc: f64) -> Generated {
    generate(
        &GenConfig {
            seed,
            real_bugs: 2,
            decoys: 2,
            taint: true,
            ..GenConfig::default()
        }
        .with_target_kloc(kloc),
    )
}

/// Stream separation for the several inputs one `--seed` makes.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1))
}

/// First grammar-generator seed of the `cold_dense` module set.
///
/// The set does not follow `--seed`: solver time per module is
/// heavy-tailed in the generator seed (0.07 s to 6.9 s over seeds 1–24 at
/// the commit that added the benchmark, 20 s for seeds 1–12 against 4.6 s
/// for 13–24), so a set drawn from `--seed` would measure the draw and not
/// the program. 13–24 is the first window of twelve whose three passes fit
/// the driver's time cap.
const DENSE_FIRST_SEED: u64 = 13;

/// The `cold_dense` modules, in the `gen_project --fuzz` configuration.
pub fn dense_modules(sizes: &Sizes) -> Vec<String> {
    (0..sizes.dense_modules as u64)
        .map(|i| {
            fuzzgen::generate(&fuzzgen::FuzzGenConfig {
                seed: DENSE_FIRST_SEED + i,
                functions: ((sizes.dense_kloc * 1000.0) / 18.0).max(2.0) as usize,
                max_stmts: 10,
                globals: 4,
                recursion: true,
            })
        })
        .collect()
}

/// Line count and digest of one generated input, as pinned in `pins.txt`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InputId {
    pub name: String,
    pub lines: usize,
    pub digest: u64,
}

impl InputId {
    pub fn of(name: impl Into<String>, text: &str) -> Self {
        InputId {
            name: name.into(),
            lines: text.lines().count(),
            digest: fnv1a64(text.as_bytes()),
        }
    }
}

/// The seed whose inputs (and `cold_dense` report digests) are pinned.
pub const PINNED_SEED: u64 = 1;

/// `pins.txt`: `<workload> <input> <lines> <fnv1a64 hex>` per line.
const PINS: &str = include_str!("../pins.txt");

/// The pinned value for (`workload`, `name`): `(lines, digest)`.
pub fn pin(workload: &str, name: &str) -> Option<(usize, u64)> {
    PINS.lines()
        .filter(|l| !l.starts_with('#'))
        .find_map(|line| {
            let mut f = line.split_whitespace();
            (f.next() == Some(workload) && f.next() == Some(name)).then(|| {
                let lines = f.next().and_then(|v| v.parse().ok());
                let digest = f.next().and_then(|v| u64::from_str_radix(v, 16).ok());
                lines.zip(digest)
            })
        })
        .flatten()
}

/// Prints every input's identity and, when `pinned`, checks it against
/// `pins.txt`. A mismatch is the error `input_digest_mismatch: <workload>`.
pub fn check_pins(workload: &str, ids: &[InputId], pinned: bool) -> Result<(), String> {
    for id in ids {
        println!(
            "input {workload} {} {} {:016x}",
            id.name, id.lines, id.digest
        );
    }
    let matches = |id: &InputId| pin(workload, &id.name) == Some((id.lines, id.digest));
    if pinned && !ids.iter().all(matches) {
        return Err(format!("input_digest_mismatch: {workload}"));
    }
    Ok(())
}

/// Cumulative one-function body edits over a generator project: each edit
/// inserts a fresh padding statement at the top of one function, so the
/// function set — and with it the incremental paths — stays intact.
#[derive(Debug)]
pub struct EditScript {
    source: String,
    rng: SmallRng,
    edits: usize,
    fillers: usize,
    markers: Vec<String>,
}

impl EditScript {
    pub fn new(project: &Generated, seed: u64) -> Self {
        EditScript {
            source: project.source.clone(),
            rng: SmallRng::seed_from_u64(seed),
            edits: 0,
            fillers: project.source.matches("\nfn filler").count(),
            markers: project.bugs.iter().map(|b| b.marker.clone()).collect(),
        }
    }

    #[cfg(test)]
    pub fn source(&self) -> &str {
        &self.source
    }

    /// Applies the next edit: in the driver of a random injected defect
    /// when `in_marker` (which invalidates that defect's queries and
    /// verdicts), otherwise in a random filler function.
    pub fn edit(&mut self, in_marker: bool) -> &str {
        let header = if in_marker {
            let marker = &self.markers[self.rng.gen_range(0..self.markers.len())];
            format!("fn {marker}driver(")
        } else {
            format!("fn filler{}(", self.rng.gen_range(0..self.fillers))
        };
        let start = self
            .source
            .find(&header)
            .expect("generator projects define every filler and every defect driver");
        let brace = start
            + self.source[start..]
                .find('{')
                .expect("a function header is followed by its body");
        self.edits += 1;
        let pad = format!(
            "\n    let pinbench_pad_{n}: int = {v};\n    print(pinbench_pad_{n});",
            n = self.edits,
            v = self.rng.gen_range(1..100)
        );
        self.source.insert_str(brace + 1, &pad);
        &self.source
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn edits_are_seeded_cumulative_and_compile() {
        let project = project(3, 1.0);
        let mut a = EditScript::new(&project, 9);
        let mut b = EditScript::new(&project, 9);
        for round in 0..6 {
            let marker = round % 3 == 2;
            assert_eq!(a.edit(marker).to_string(), b.edit(marker));
        }
        assert_eq!(a.source().matches("pinbench_pad_").count(), 12);
        pinpoint::compile(a.source()).expect("edited project compiles");
    }

    #[test]
    fn pins_parse() {
        assert!(pin("cold_sparse", "project").is_some());
        assert!(pin("cold_sparse", "no-such-input").is_none());
    }
}
