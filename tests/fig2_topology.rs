//! Figure 2 reproduction: "A network of BeSS servers and client
//! workstations."
//!
//! The figure shows three node archetypes:
//!   * node 1 — an application with neither server nor node server: it
//!     talks to *multiple* BeSS servers directly and caches data/locks
//!     only for the duration of a transaction;
//!   * node 2 — an application on the same machine as a BeSS server;
//!   * node 3 — applications behind a BeSS node server, reaching the whole
//!     distributed database through it alone.
//!
//! This test stands the full topology up and drives a distributed
//! transaction from each archetype.

use std::sync::Arc;
use std::time::Duration;

use bess_cache::{AreaSet, DbPage};
use bess_lock::LockMode;
use bess_net::{Network, NodeId};
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, NodeServer,
    NodeServerConfig, PageUpdate, ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::LogManager;

struct Topology {
    net: Arc<Network<Msg>>,
    dir: Arc<Directory>,
    servers: Vec<BessServer>,
    ns: NodeServer,
}

fn build() -> (Topology, DbPage, DbPage) {
    let net = Network::new(Duration::ZERO);
    let dir = Arc::new(Directory::new());
    let mut servers = Vec::new();
    // Two BeSS servers, each owning one storage area (Figure 2's server
    // machines with their disk stacks).
    for (i, area) in [0u32, 1].iter().enumerate() {
        let set = Arc::new(AreaSet::new());
        set.add(Arc::new(
            StorageArea::create_mem(AreaId(*area), AreaConfig::default()).unwrap(),
        ));
        let node = NodeId(100 + i as u32);
        register_areas(&dir, node, &set);
        let (s, _) = BessServer::start(ServerConfig::new(node), set, LogManager::create_mem(), &net);
        servers.push(s);
    }
    let p0 = {
        let seg = servers[0].areas().get(0).unwrap().alloc(1).unwrap();
        DbPage { area: 0, page: seg.start_page }
    };
    let p1 = {
        let seg = servers[1].areas().get(1).unwrap().alloc(1).unwrap();
        DbPage { area: 1, page: seg.start_page }
    };
    // Node 3's node server.
    let ns = NodeServer::start(NodeServerConfig::new(NodeId(50)), Arc::clone(&dir), &net);
    (
        Topology {
            net,
            dir,
            servers,
            ns,
        },
        p0,
        p1,
    )
}

fn upd(p: DbPage, before: &[u8], after: &[u8]) -> PageUpdate {
    PageUpdate {
        page: p,
        offset: 0,
        before: before.to_vec(),
        after: after.to_vec(),
    }
}

#[test]
fn figure2_all_three_archetypes_work() {
    let (topo, p0, p1) = build();

    // --- node 1: direct client of BOTH servers, txn-duration caching ----
    let mut cfg = ClientConfig::new(NodeId(1), topo.servers[0].node());
    cfg.caching = false;
    let node1 = ClientConn::connect(&topo.net, Arc::clone(&topo.dir), cfg);
    node1.begin().unwrap();
    node1.fetch_page(p0, LockMode::X).unwrap();
    node1.fetch_page(p1, LockMode::X).unwrap();
    // A distributed commit across both servers (2PC via the home server).
    node1
        .commit(vec![upd(p0, &[0; 2], b"n1"), upd(p1, &[0; 2], b"n1")])
        .unwrap();
    // Txn-duration caching: everything released afterwards.
    assert!(node1.lock_cache().is_empty());

    // --- node 2: application colocated with server 0 ---------------------
    // (Embedded access: it can read the area directly — trusted code —
    // and see node 1's committed bytes.)
    let area0 = topo.servers[0].areas().get(0).unwrap();
    let mut buf = vec![0u8; area0.page_size()];
    area0.read_page(p0.page, &mut buf).unwrap();
    assert_eq!(&buf[0..2], b"n1");

    // --- node 3: applications behind the node server --------------------
    let mut cfg = ClientConfig::new(NodeId(51), topo.ns.node());
    cfg.gateway = Some(topo.ns.node());
    let app = ClientConn::connect(&topo.net, Arc::clone(&topo.dir), cfg);
    app.begin().unwrap();
    // Both pages are reachable "by communicating only with the local node
    // server" (§3) — including a cross-server 2PC commit it forwards.
    let d0 = app.fetch_page(p0, LockMode::X).unwrap();
    let d1 = app.fetch_page(p1, LockMode::X).unwrap();
    assert_eq!(&d0[0..2], b"n1");
    assert_eq!(&d1[0..2], b"n1");
    app.commit(vec![upd(p0, b"n1", b"n3"), upd(p1, b"n1", b"n3")])
        .unwrap();
    assert!(topo.ns.stats().global_commits.get() >= 1, "ns ran 2PC");

    // Every server saw its half. The coordinator applies its own branch
    // before it answers; srv1's commit verdict is a one-way send
    // (presumed commit), so its half may land just after the ack.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    for (i, p) in [(0usize, p0), (1usize, p1)] {
        let area = topo.servers[i].areas().get(p.area).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        loop {
            area.read_page(p.page, &mut buf).unwrap();
            if &buf[0..2] == b"n3" || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert_eq!(&buf[0..2], b"n3");
    }
    // Both servers participated in prepares (node1's commit + app's).
    assert!(topo.servers[1].stats().prepares.get() >= 1);
}

#[test]
fn figure2_node1_multi_server_reads_are_consistent() {
    let (topo, p0, p1) = build();
    // Seed both areas.
    let seed = |srv: &BessServer, p: DbPage, byte: u8| {
        let area = srv.areas().get(p.area).unwrap();
        let mut buf = vec![0u8; area.page_size()];
        buf[0] = byte;
        area.write_page(p.page, &buf).unwrap();
    };
    seed(&topo.servers[0], p0, 7);
    seed(&topo.servers[1], p1, 9);

    let mut cfg = ClientConfig::new(NodeId(2), topo.servers[0].node());
    cfg.caching = false;
    let c = ClientConn::connect(&topo.net, Arc::clone(&topo.dir), cfg);
    c.begin().unwrap();
    assert_eq!(c.fetch_page(p0, LockMode::S).unwrap()[0], 7);
    assert_eq!(c.fetch_page(p1, LockMode::S).unwrap()[0], 9);
    c.commit(vec![]).unwrap();
}
