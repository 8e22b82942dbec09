//! Schedule determinism: the seeded request schedule perfbench replays
//! must be a pure function of its parameters, through the public
//! `ctbia_serve::loadgen` path perfbench imports.

use ctbia_serve::loadgen::Schedule;

#[test]
fn schedule_generation_is_a_pure_function() {
    let a = Schedule::generate(9, 16, 300, 8, 3);
    let b = Schedule::generate(9, 16, 300, 8, 3);
    assert_eq!(a, b);
    assert_eq!(a.digest(), b.digest());
    // Tenant assignment is a pure function of the connection.
    for r in &a.requests {
        assert_eq!(r.tenant, r.conn % 3);
        assert!(r.cell < 8);
        assert!(r.conn < 16);
    }
}
