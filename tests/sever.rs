//! `Server::debug_sever` (behind the `test-hooks` feature) returns only
//! once the severed server's listener is closed. A connect made after it
//! returns is refused outright, never accepted into the kernel's backlog
//! and then reset, so a relay always reads the failure as provably
//! unaccepted and may fail it over — the premise of the failover test in
//! `tests/fleet.rs`.

use std::sync::Arc;

use qrm_net::{Client, NetConfig, Server};
use qrm_server::{BatchSpec, PlanService, SubmitBatch};
use qrm_wire::ToJson;

#[test]
fn every_connect_after_a_sever_is_provably_unaccepted() {
    // No request reaches the service, so it needs no planner.
    let service = Arc::new(PlanService::builder().build());
    let body = SubmitBatch::new("qrm", BatchSpec::new(1, 8, 7)).to_json();
    for cycle in 0..200 {
        let mut server =
            Server::bind("127.0.0.1:0", Arc::clone(&service), NetConfig::default()).expect("bind");
        server.debug_sever();
        let mut client = Client::connect(server.addr().to_string());
        match client.post_classified("/v1/batch", &body) {
            Ok(response) => panic!(
                "cycle {cycle}: a severed server answered {}",
                response.status
            ),
            Err(failure) => assert!(failure.provably_unaccepted, "cycle {cycle}: {failure}"),
        }
    }
}
