//! The panel solve ([`fanout::solve_lanes`]) against its reference, the CSC
//! solve ([`fanout::solve_csc_multi`]) over [`NumericFactor::to_csc`]: every
//! lane must match bit for bit, on regular and irregular structures, under
//! every blocking policy, for single and batched right-hand sides, and on
//! degenerate shapes. Every public solve path must land on the same bits.

use cholesky_core::{BlockPolicy, NumericFactor, SchedOptions, Solver, SolverOptions};
use sparsemat::{gen, SymCscMatrix};

const LANES: [usize; 5] = [1, 2, 3, 8, 17];

const POLICIES: [BlockPolicy; 3] = [
    BlockPolicy::Uniform,
    BlockPolicy::WorkEqualized,
    BlockPolicy::Rectilinear { sweeps: 2 },
];

fn bits(x: &[f64]) -> Vec<u64> {
    x.iter().map(|v| v.to_bits()).collect()
}

/// `k` interleaved right-hand sides of length `n`.
fn lanes(n: usize, k: usize) -> Vec<f64> {
    (0..n * k)
        .map(|i| ((i * 7 + 3) as f64 * 0.173).sin() + 1.25)
        .collect()
}

/// Asserts the panel solve matches the CSC reference, lane by lane, for
/// every lane count in [`LANES`].
fn assert_matches_reference(f: &NumericFactor, what: &str) {
    let n = f.bm.sn.n();
    let (cp, ri, v) = f.to_csc();
    let mut scratch = Vec::new();
    for k in LANES {
        let b = lanes(n, k);
        let mut want = b.clone();
        fanout::solve_csc_multi(&cp, &ri, &v, &mut want, k);
        let mut got = b;
        fanout::solve_lanes(f, &mut got, k, &mut scratch);
        assert_eq!(bits(&got), bits(&want), "{what}, k = {k}");
        assert!(got.iter().all(|x| x.is_finite()), "{what}, k = {k}");
    }
}

fn solver(a: &SymCscMatrix, block_size: usize, policy: BlockPolicy) -> Solver {
    let opts = SolverOptions {
        block_size,
        block_policy: policy,
        ..Default::default()
    };
    Solver::analyze(a, &opts)
}

#[test]
fn panel_solve_matches_csc_reference_on_every_structure_and_policy() {
    let problems = [
        ("grid2d(14)", gen::grid2d(14)),
        ("bcsstk_like(320)", gen::bcsstk_like("S", 320, 4)),
        ("cube3d(6)", gen::cube3d(6)),
        ("fleet_like(120)", gen::fleet_like("F", 120, 2)),
    ];
    let nominal = 6;
    let mut wider_than_nominal = false;
    for (name, p) in &problems {
        for policy in POLICIES {
            let s = solver(&p.matrix, nominal, policy);
            let f = s.factor_seq().expect("SPD by construction");
            wider_than_nominal |= f.bm.partition.max_width() > nominal;
            assert_matches_reference(&f, &format!("{name} {}", policy.label()));
        }
    }
    assert!(
        wider_than_nominal,
        "some irregular panel must exceed the nominal width"
    );
}

#[test]
fn panel_solve_matches_csc_reference_on_degenerate_shapes() {
    // n = 1.
    let one = gen::spd_from_edges(1, &[]);
    // Diagonal only: every panel has no off-diagonal block.
    let diag = gen::spd_from_edges(9, &[]);
    // One fully dense panel, then the same matrix split into dense panels
    // whose off-diagonal blocks are full.
    let dense = gen::dense(13).matrix;
    for (name, a, bs) in [
        ("n = 1", &one, 4),
        ("diagonal", &diag, 3),
        ("dense", &dense, 16),
        ("dense split", &dense, 5),
    ] {
        let s = solver(a, bs, BlockPolicy::Uniform);
        let f = s.factor_seq().expect("SPD by construction");
        if name == "dense" {
            assert_eq!(f.bm.num_panels(), 1, "one panel holds the whole matrix");
        }
        if name == "diagonal" {
            assert!(
                f.bm.cols.iter().all(|c| c.blocks.len() == 1),
                "diagonal blocks only"
            );
        }
        assert_matches_reference(&f, name);
    }
}

/// Session `resolve`/`resolve_many`, `Solver::solve`/`solve_into`, and the
/// CSC reference (with the fill permutation applied around it) all agree
/// bit for bit, on sequential and scheduled sessions.
#[test]
fn every_solve_path_lands_on_the_reference_bits() {
    let p = gen::bcsstk_like("P", 260, 6);
    let a = &p.matrix;
    let n = a.n();
    for policy in [BlockPolicy::Uniform, BlockPolicy::Rectilinear { sweeps: 2 }] {
        let s = solver(a, 5, policy);
        let f = s.factor_seq().expect("SPD by construction");
        let perm = &s.plan.analysis.perm;
        let (cp, ri, v) = f.to_csc();
        let k = 3;
        let rhs: Vec<Vec<f64>> = (0..k)
            .map(|r| {
                (0..n)
                    .map(|i| ((i + 5 * r) as f64 * 0.29).cos() + 0.5)
                    .collect()
            })
            .collect();
        let refs: Vec<&[f64]> = rhs.iter().map(Vec::as_slice).collect();
        let want: Vec<Vec<f64>> = rhs
            .iter()
            .map(|b| {
                let mut pb = perm.apply_to_vec(b);
                fanout::solve_csc(&cp, &ri, &v, &mut pb);
                perm.apply_inverse_to_vec(&pb)
            })
            .collect();

        let mut ws = cholesky_core::SolveWorkspace::new();
        let mut x = vec![0.0; n];
        for (b, w) in rhs.iter().zip(&want) {
            assert_eq!(bits(&s.solve(&f, b)), bits(w), "Solver::solve");
            s.solve_into(&f, b, &mut ws, &mut x);
            assert_eq!(bits(&x), bits(w), "Solver::solve_into");
        }

        let asg = s.assign_cyclic(4);
        let sessions = [
            ("seq", s.session()),
            ("sched", s.session_sched(&asg, &SchedOptions::default())),
        ];
        for (name, mut session) in sessions {
            session.refactor(a.values()).expect("SPD by construction");
            for (b, w) in rhs.iter().zip(&want) {
                assert_eq!(bits(&session.resolve(b)), bits(w), "{name} resolve");
            }
            for (x, w) in session.resolve_many(&refs).iter().zip(&want) {
                assert_eq!(bits(x), bits(w), "{name} resolve_many");
            }
            assert!(!session.plan().numeric_templates().csc.is_built(), "{name}");
        }
    }
}
