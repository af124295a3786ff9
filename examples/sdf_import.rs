//! Importing real chemistry data: SD files → PIS system.
//!
//! The paper's dataset is the NCI AIDS antiviral screen, distributed as
//! an SD file. This example parses MOL V2000 records (a small embedded
//! sample here; point `--` arguments at a real file), builds a PIS
//! system over them, and runs a ring query — the full real-data path.
//!
//! Run with:
//! `cargo run --release --example sdf_import [path/to/file.sdf]`

use pis::datasets::sdf::parse_sdf;
use pis::datasets::{AtomVocabulary, BondVocabulary, DatasetStats};
use pis::prelude::*;

/// A hand-written sample: benzene, pyridine, cyclohexane, phenol.
const SAMPLE_SDF: &str = "\
benzene


  6  6  0  0  0  0  0  0  0  0999 V2000
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
  1  2  4  0
  2  3  4  0
  3  4  4  0
  4  5  4  0
  5  6  4  0
  6  1  4  0
M  END
$$$$
pyridine


  6  6  0  0  0  0  0  0  0  0999 V2000
    0.0 0.0 0.0 N 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
  1  2  4  0
  2  3  4  0
  3  4  4  0
  4  5  4  0
  5  6  4  0
  6  1  4  0
M  END
$$$$
cyclohexane


  6  6  0  0  0  0  0  0  0  0999 V2000
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
  1  2  1  0
  2  3  1  0
  3  4  1  0
  4  5  1  0
  5  6  1  0
  6  1  1  0
M  END
$$$$
phenol


  7  7  0  0  0  0  0  0  0  0999 V2000
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 C 0 0
    0.0 0.0 0.0 O 0 0
  1  2  4  0
  2  3  4  0
  3  4  4  0
  4  5  4  0
  5  6  4  0
  6  1  4  0
  1  7  1  0
M  END
$$$$
";

fn main() {
    let atoms = AtomVocabulary::default();
    let bonds = BondVocabulary::default();

    // Load from a real file when given, else the embedded sample.
    let text = match std::env::args().nth(1) {
        Some(path) => {
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        }
        None => SAMPLE_SDF.to_string(),
    };
    let load = parse_sdf(&text, &atoms, &bonds);
    println!("parsed {} molecules ({} records skipped)", load.molecules.len(), load.skipped);
    println!("{}", DatasetStats::compute(&load.molecules));

    let system = PisSystem::builder()
        .mutation_distance(MutationDistance::edge_hamming())
        .exhaustive_features(4)
        .build(load.molecules);

    // Query: an aromatic six-ring (benzene skeleton).
    let mut b = GraphBuilder::new();
    let aromatic = bonds.label_of("aromatic").expect("vocabulary has aromatic bonds");
    let carbon = atoms.label_of("C").expect("vocabulary has carbon");
    let vs = b.add_vertices(6, VertexAttr::labeled(carbon));
    for i in 0..6 {
        b.add_edge(vs[i], vs[(i + 1) % 6], EdgeAttr::labeled(aromatic)).unwrap();
    }
    let query = b.build();

    // The search decides `d ≤ σ`; the verifier measures each answer's
    // distance afterwards.
    let distance = MutationDistance::edge_hamming();
    let mut verify = VerifyScratch::new();
    verify.begin_query(&query);
    let mut distances_at = |answers: &[GraphId], sigma: f64| -> Vec<f64> {
        answers
            .iter()
            .map(|&g| {
                verify
                    .distance_within(&query, system.graph(g), &distance, sigma)
                    .expect("an answer has a superposition within sigma")
            })
            .collect()
    };
    for sigma in [0.0, 2.0, 6.0] {
        let outcome = system.search(&query, sigma);
        println!(
            "aromatic ring query, sigma {sigma}: {} answers {:?} (distances {:?})",
            outcome.answers.len(),
            outcome.answers.iter().map(|g| g.0).collect::<Vec<_>>(),
            distances_at(&outcome.answers, sigma)
        );
    }

    // With the embedded sample: benzene, pyridine and phenol contain the
    // aromatic ring exactly; cyclohexane needs 6 bond mutations.
    if std::env::args().nth(1).is_none() {
        let exact = system.search(&query, 0.0);
        assert_eq!(exact.answers.len(), 3);
        let all = system.search(&query, 6.0);
        assert_eq!(all.answers.len(), 4);
        assert_eq!(distances_at(&all.answers, 6.0), [0.0, 0.0, 6.0, 0.0]);
        println!("sample assertions OK");
    }
}
