//! The system under test: the shipped `bess-server` stack on file-backed
//! storage, built only from public constructors with shipped defaults.
//!
//! Every server owns one storage area file (through [`MeteredDevice`] over
//! `FileDevice`) and one WAL file (`LogManager::create_file`); servers,
//! the node server and clients talk over the in-process `bess-net`
//! network with zero wire latency.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use bess_cache::AreaSet;
use bess_io::FileDevice;
use bess_net::{Network, NodeId};
use bess_obs::RegistrySnapshot;
use bess_server::{
    register_areas, BessServer, ClientConfig, ClientConn, Directory, Msg, NodeServer,
    NodeServerConfig, ServerConfig,
};
use bess_storage::{AreaConfig, AreaId, StorageArea};
use bess_wal::LogManager;

use crate::device::{Meter, MeteredDevice};
use crate::gen::{page_stamp, Scale, RECORD};
use crate::Workload;

/// Node id of server `i`; it owns area `i`.
fn server_node(i: usize) -> NodeId {
    NodeId(100 + i as u32)
}

const NODE_SERVER: NodeId = NodeId(50);

/// How long shutdown and restart wait for 2PC rounds to settle.
const SETTLE: Duration = Duration::from_secs(10);

fn io_err(what: &str, path: &Path, e: impl std::fmt::Display) -> String {
    format!("{what} {}: {e}", path.display())
}

struct Server {
    server: BessServer,
    area: AreaId,
    area_path: PathBuf,
    wal_path: PathBuf,
}

/// A running stack: servers, the optional node server, and the clients.
pub struct Stack {
    dir: PathBuf,
    net: Arc<Network<Msg>>,
    servers: Vec<Server>,
    node_server: Option<NodeServer>,
    clients: Vec<Arc<ClientConn>>,
    meter: Arc<Meter>,
    pages: Vec<Vec<u64>>,
}

/// Pages each server's area holds for workload `w`.
fn pages_per_server(w: Workload, scale: &Scale, page_size: usize) -> usize {
    match w {
        Workload::OltpZipf | Workload::OltpPartitioned => {
            (scale.objects * RECORD).div_ceil(page_size)
        }
        Workload::ReadHotcold => scale.hot_cold_pages,
        Workload::Dist2pc => scale.dist_pages,
    }
}

impl Stack {
    /// Provisions the stack in the fresh directory `dir`: area and WAL
    /// files, allocation, preload, servers, node server, and `clients`
    /// connections.
    pub fn build(
        w: Workload,
        scale: &Scale,
        seed: u64,
        dir: PathBuf,
        clients: usize,
    ) -> Result<Stack, String> {
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create", &dir, e))?;
        let net = Network::new(Duration::ZERO);
        let directory = Arc::new(Directory::new());
        let meter = Arc::new(Meter::default());
        let n_servers = if w == Workload::Dist2pc { 2 } else { 1 };
        let mut servers = Vec::with_capacity(n_servers);
        let mut pages = Vec::with_capacity(n_servers);
        for i in 0..n_servers {
            let area_id = AreaId(i as u32);
            let area_path = dir.join(format!("a{i}.area"));
            let file = OpenOptions::new()
                .read(true)
                .write(true)
                .create_new(true)
                .open(&area_path)
                .map_err(|e| io_err("create", &area_path, e))?;
            let dev = MeteredDevice::new(FileDevice::new(file), Arc::clone(&meter));
            let area = StorageArea::create_on_device(area_id, AreaConfig::default(), dev)
                .map_err(|e| io_err("create area", &area_path, e))?;
            let need = pages_per_server(w, scale, area.page_size());
            let chunk = need.next_power_of_two().min(area.extent_pages() as usize) as u32;
            let mut area_pages = Vec::with_capacity(need);
            while area_pages.len() < need {
                let ptr = area
                    .alloc(chunk)
                    .map_err(|e| io_err("allocate in", &area_path, e))?;
                area_pages.extend((0..u64::from(ptr.pages)).map(|p| ptr.start_page + p));
            }
            area_pages.truncate(need);
            // Preload: stamped pages to read, or zero-count records (all
            // zero bytes) to increment.
            let zeros = vec![0u8; area.page_size()];
            for &p in &area_pages {
                let stamp;
                let data = if w == Workload::ReadHotcold {
                    stamp = page_stamp(p, seed, area.page_size());
                    &stamp
                } else {
                    &zeros
                };
                area.write_page(p, data)
                    .map_err(|e| io_err("preload", &area_path, e))?;
            }
            let set = Arc::new(AreaSet::new());
            set.add(Arc::new(area));
            let node = server_node(i);
            register_areas(&directory, node, &set);
            let wal_path = dir.join(format!("s{i}.wal"));
            let log =
                LogManager::create_file(&wal_path).map_err(|e| io_err("create", &wal_path, e))?;
            let (server, _) = BessServer::start(ServerConfig::new(node), set, log, &net);
            servers.push(Server {
                server,
                area: area_id,
                area_path,
                wal_path,
            });
            pages.push(area_pages);
        }
        let node_server = (w == Workload::ReadHotcold).then(|| {
            NodeServer::start(
                NodeServerConfig::new(NODE_SERVER),
                Arc::clone(&directory),
                &net,
            )
        });
        let clients = (0..clients)
            .map(|c| {
                let cfg = if node_server.is_some() {
                    let mut cfg = ClientConfig::new(NodeId(60 + c as u32), NODE_SERVER);
                    cfg.gateway = Some(NODE_SERVER);
                    cfg
                } else {
                    ClientConfig::new(NodeId(1 + c as u32), server_node(0))
                };
                ClientConn::connect(&net, Arc::clone(&directory), cfg)
            })
            .collect();
        Ok(Stack {
            dir,
            net,
            servers,
            node_server,
            clients,
            meter,
            pages,
        })
    }

    /// The client connections.
    pub fn clients(&self) -> &[Arc<ClientConn>] {
        &self.clients
    }

    /// The area id and provisioned page numbers of server `i`.
    pub fn area_pages(&self, i: usize) -> (u32, &[u64]) {
        (self.servers[i].area.0, &self.pages[i])
    }

    /// The device meter shared by every area.
    pub fn meter(&self) -> &Arc<Meter> {
        &self.meter
    }

    /// Times every WAL group force through the meter.
    pub fn install_force_timer(&self) {
        for s in &self.servers {
            let meter = Arc::clone(&self.meter);
            s.server
                .log()
                .set_force_hook(Some(Box::new(move |p| meter.force_point(p))));
        }
    }

    /// One snapshot of every registry in the stack: the network, the
    /// servers (with their lock, WAL, storage and I/O metrics), the node
    /// server under `ns.`, and the clients. Homologous counters sum.
    pub fn snapshot(&self) -> RegistrySnapshot {
        let mut s = RegistrySnapshot::default();
        s.absorb("", &self.net.metrics().registry().snapshot());
        for srv in &self.servers {
            s.absorb("", &srv.server.metrics().registry().snapshot());
        }
        if let Some(ns) = &self.node_server {
            s.absorb("ns", &ns.metrics().registry().snapshot());
        }
        for c in &self.clients {
            s.absorb("", &c.metrics().registry().snapshot());
        }
        s
    }

    /// Bytes made durable in the WAL files so far (the LSN is the file
    /// offset of the log's end).
    pub fn wal_bytes(&self) -> u64 {
        self.servers
            .iter()
            .map(|s| s.server.log().flushed_lsn().0)
            .sum()
    }

    /// Stops clients, node server and servers (each waits out its 50 ms
    /// listener poll) and removes the stack's files.
    pub fn teardown(self) {
        let dir = self.dir.clone();
        self.stop();
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Stops everything and returns the servers' files and flushed LSNs.
    fn stop(self) -> (PathBuf, Vec<(AreaId, PathBuf, PathBuf, u64)>) {
        for c in &self.clients {
            c.disconnect();
        }
        drop(self.clients);
        if let Some(ns) = self.node_server {
            ns.shutdown();
        }
        // One-way commit decides may still be in flight to participants.
        let deadline = Instant::now() + SETTLE;
        while Instant::now() < deadline
            && self
                .servers
                .iter()
                .any(|s| !s.server.in_doubt().is_empty() || !s.server.pending_gtxns().is_empty())
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        let files = self
            .servers
            .into_iter()
            .map(|s| {
                let flushed = s.server.log().flushed_lsn().0;
                s.server.shutdown();
                (s.area, s.area_path, s.wal_path, flushed)
            })
            .collect();
        (self.dir, files)
    }

    /// The restart check's first half: stops the stack, truncates every
    /// WAL file to its `flushed_lsn()` (dropping whatever the log had not
    /// forced), reopens the area and WAL files, and restarts the servers
    /// so restart recovery runs.
    pub fn crash_restart(self) -> Result<Restarted, String> {
        let (dir, files) = self.stop();
        let net = Network::new(Duration::ZERO);
        let directory = Arc::new(Directory::new());
        let mut servers = Vec::with_capacity(files.len());
        for (i, (area_id, area_path, wal_path, flushed)) in files.into_iter().enumerate() {
            OpenOptions::new()
                .write(true)
                .open(&wal_path)
                .and_then(|f| f.set_len(flushed))
                .map_err(|e| io_err("truncate", &wal_path, e))?;
            let area = StorageArea::open_file(area_id, &area_path, true)
                .map_err(|e| io_err("reopen", &area_path, e))?;
            let set = Arc::new(AreaSet::new());
            set.add(Arc::new(area));
            register_areas(&directory, server_node(i), &set);
            let log =
                LogManager::open_file(&wal_path).map_err(|e| io_err("reopen", &wal_path, e))?;
            let (server, _) = BessServer::start(ServerConfig::new(server_node(i)), set, log, &net);
            servers.push((server, area_id));
        }
        let deadline = Instant::now() + SETTLE;
        while servers.iter().any(|(s, _)| !s.in_doubt().is_empty()) {
            if Instant::now() >= deadline {
                return Err("in-doubt transactions unresolved after restart".into());
            }
            servers.iter().for_each(|(s, _)| s.resolve_in_doubt());
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(Restarted { dir, servers })
    }
}

/// The restarted servers of [`Stack::crash_restart`].
pub struct Restarted {
    dir: PathBuf,
    servers: Vec<(BessServer, AreaId)>,
}

impl Restarted {
    /// Reads page `page` of server `i`'s area as recovery left it.
    pub fn read(&self, i: usize, page: u64) -> Result<Vec<u8>, String> {
        let (server, area) = &self.servers[i];
        let area = server
            .areas()
            .get(area.0)
            .ok_or_else(|| format!("area {} missing after restart", area.0))?;
        let mut buf = vec![0u8; area.page_size()];
        area.read_page(page, &mut buf)
            .map_err(|e| format!("read page {page} of area {}: {e}", area.id().0))?;
        Ok(buf)
    }

    /// Stops the servers and removes the files.
    pub fn close(self) {
        for (s, _) in self.servers {
            s.shutdown();
        }
        let _ = std::fs::remove_dir_all(self.dir);
    }
}
