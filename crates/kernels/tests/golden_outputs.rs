//! Golden output checksums: the exact `f64` bits every kernel produces at its
//! library defaults. A change that must preserve behaviour (a faster
//! neighbour search, a shared RNG, a refactor) has to leave these hashes
//! unchanged; a change that moves an output on purpose updates the hash and
//! says why.

use sig_core::Policy;
use sig_kernels::fluidanimate::Fluidanimate;
use sig_kernels::{all_benchmarks, ExecutionConfig};

/// FNV-1a over the length and the IEEE-754 bits of every value.
fn fingerprint(values: &[f64]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    let words = std::iter::once(values.len() as u64).chain(values.iter().map(|v| v.to_bits()));
    for word in words {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn accurate_outputs_match_the_golden_checksums() {
    let expected: [(&str, u64); 6] = [
        ("Sobel", 0xfc6a_12be_1417_5fce),
        ("DCT", 0xf968_8664_2861_65db),
        ("MC", 0xbfc2_6a5f_4a94_3183),
        ("Kmeans", 0x082e_2c34_188e_aae7),
        ("Jacobi", 0x0d57_9af4_23e6_07af),
        ("Fluidanimate", 0x367b_5caf_e10f_fdaf),
    ];
    let actual: Vec<(&str, u64)> = all_benchmarks()
        .iter()
        .map(|b| {
            (
                b.name(),
                fingerprint(&b.run(&ExecutionConfig::accurate(1)).values),
            )
        })
        .collect();
    assert_eq!(
        expected.to_vec(),
        actual,
        "accurate output checksums: {:#018x?}",
        actual.iter().map(|(_, h)| h).collect::<Vec<_>>()
    );
}

#[test]
fn fluidanimate_task_output_matches_the_golden_checksum() {
    let out = Fluidanimate::default().run_tasks(2, Policy::GtbMaxBuffer, 4);
    let got = fingerprint(&out.values);
    assert_eq!(
        got, 0xed87_a439_48a2_311c,
        "task output checksum {got:#018x}"
    );
}
