//! Property-based cross-solver consistency: independent implementations must
//! agree — the strongest correctness signal a from-scratch numerical stack
//! can give.

use proptest::prelude::*;
use snbc_interval::{eval_range, BranchAndBound, Interval, Verdict};
use snbc_linalg::Matrix;
use snbc_lp::{simplex, solve_standard, LpOptions};
use snbc_poly::Polynomial;
use snbc_sos::{extract_squares, SosExpr, SosProgram};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Simplex and interior-point agree on random feasible standard-form LPs.
    #[test]
    fn lp_simplex_matches_ipm(
        entries in proptest::collection::vec(-1.0f64..1.0, 3 * 7),
        xstar in proptest::collection::vec(0.1f64..1.5, 7),
        costs in proptest::collection::vec(-1.0f64..1.0, 7),
    ) {
        let a = Matrix::from_vec(3, 7, entries);
        let b = a.matvec(&xstar); // feasible by construction
        let sx = simplex::solve(&a, &b, &costs);
        let ip = solve_standard(&a, &b, &costs, &LpOptions::default());
        match (sx, ip) {
            (Ok(s), Ok(p)) => {
                prop_assert!(
                    (s.objective - p.objective).abs() < 1e-4 * (1.0 + s.objective.abs()),
                    "simplex {} vs ipm {}", s.objective, p.objective
                );
            }
            (Err(snbc_lp::LpError::Unbounded), Err(snbc_lp::LpError::Unbounded)) => {}
            // Rare borderline unbounded/iteration-limit disagreements are
            // acceptable; both must at least refuse to return a number.
            (Err(_), Err(_)) => {}
            (s, p) => prop_assert!(false, "solver disagreement: {s:?} vs {p:?}"),
        }
    }

    /// Every SOS certificate the SDP route produces evaluates nonnegatively —
    /// checked pointwise and via interval arithmetic.
    #[test]
    fn sos_certificates_are_pointwise_nonnegative(
        c1 in -1.0f64..1.0,
        c2 in -1.0f64..1.0,
        c3 in 0.2f64..2.0,
    ) {
        // p = (x + c1·y)² + (y − c2)² + c3 is strictly SOS.
        let p: Polynomial = format!(
            "(x0 + {c1}*x1)^2 + (x1 - {c2})^2 + {c3}"
        ).parse().unwrap();
        let mut prog = SosProgram::new(2);
        let cert = prog.require_sos(SosExpr::from_poly(p.clone()));
        let sol = prog.solve_default().expect("strictly SOS input");
        prop_assert!(sol.margin() > 0.0);

        // Explicit decomposition reproduces p.
        let (basis, gram) = sol.gram(cert).expect("gram");
        let dec = extract_squares(sol.poly(cert), basis, gram).expect("decomposition");
        prop_assert!(dec.residual < 1e-4, "residual {}", dec.residual);

        // Interval verification over a box agrees that p > 0.
        let bx = vec![Interval::new(-2.0, 2.0); 2];
        let rep = BranchAndBound::default().check_at_least(&p, &bx, &[], 0.0);
        prop_assert_eq!(rep.verdict, Verdict::Holds);
    }

    /// Interval range bounds contain dense-sample ranges for random
    /// polynomials (soundness of the abstract domain used by the SMT
    /// substitute).
    #[test]
    fn interval_ranges_contain_samples(
        coeffs in proptest::collection::vec(-2.0f64..2.0, 6),
    ) {
        let basis = snbc_poly::monomial_basis(2, 2);
        let p = Polynomial::from_coeffs(&coeffs, &basis);
        let bx = [Interval::new(-1.3, 0.7), Interval::new(0.2, 1.9)];
        let range = eval_range(&p, &bx);
        for i in 0..8 {
            for j in 0..8 {
                let x = [
                    -1.3 + 2.0 * i as f64 / 7.0,
                    0.2 + 1.7 * j as f64 / 7.0,
                ];
                prop_assert!(range.contains(p.eval(&x)));
            }
        }
    }

    /// The quadratic network's forward pass, its extracted polynomial, and
    /// its tangent channel against the polynomial's symbolic Lie derivative
    /// all agree at random points and parameters.
    #[test]
    fn quadratic_net_three_way_agreement(
        seed in 0u64..1000,
        x0 in -1.0f64..1.0,
        x1 in -1.0f64..1.0,
    ) {
        use snbc_nn::QuadraticNet;
        let net = QuadraticNet::new(2, &[4], seed);
        let x = [x0, x1];
        let direct = net.forward(&x);
        let p = net.to_polynomial();
        let poly = p.eval(&x);
        let field: Vec<Polynomial> = vec!["x1".parse().unwrap(), "-x0 + x0*x1".parse().unwrap()];
        let symbolic_lie = snbc_poly::lie_derivative(&p, &field).eval(&x);
        let f: Vec<f64> = field.iter().map(|fi| fi.eval(&x)).collect();
        let mut scratch = vec![0.0; net.scratch_len(1)];
        let mut out = [0.0; 2];
        net.eval(net.params(), &x, &[&f], &mut scratch, &mut out);
        prop_assert!((direct - poly).abs() < 1e-9);
        prop_assert!((direct - out[0]).abs() < 1e-12);
        prop_assert!((out[1] - symbolic_lie).abs() < 1e-9 * symbolic_lie.abs().max(1.0));
    }
}
