//! Area ownership directory.
//!
//! "Each BeSS server manages a number of storage areas" (§3). The
//! directory tells clients and node servers which server node owns a given
//! area, so fetches, locks, and disk allocations are routed correctly.

use std::collections::HashMap;

use bess_lock::LockName;
use bess_net::NodeId;
use parking_lot::RwLock;

/// Maps storage areas to their owning server nodes.
#[derive(Debug, Default)]
pub struct Directory {
    owners: RwLock<HashMap<u32, NodeId>>,
}

impl Directory {
    /// Creates an empty directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares `server` the owner of `area`.
    pub fn set_owner(&self, area: u32, server: NodeId) {
        self.owners.write().insert(area, server);
    }

    /// The owner of `area`.
    pub fn owner(&self, area: u32) -> Option<NodeId> {
        self.owners.read().get(&area).copied()
    }

    /// The server that grants locks on `name`: the owner of its area, and
    /// for the area-less database and file names the lowest-numbered
    /// server, so every client and node server agrees where they live.
    pub fn lock_owner(&self, name: &LockName) -> Option<NodeId> {
        match name.area() {
            Some(area) => self.owner(area),
            None => self.servers().first().copied(),
        }
    }

    /// Every known area, sorted.
    pub fn areas(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.owners.read().keys().copied().collect();
        v.sort_unstable();
        v
    }

    /// Every distinct server node.
    pub fn servers(&self) -> Vec<NodeId> {
        let mut v: Vec<NodeId> = self.owners.read().values().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ownership() {
        let dir = Directory::new();
        dir.set_owner(0, NodeId(10));
        dir.set_owner(1, NodeId(10));
        dir.set_owner(2, NodeId(20));
        assert_eq!(dir.owner(1), Some(NodeId(10)));
        assert_eq!(dir.owner(9), None);
        assert_eq!(dir.areas(), vec![0, 1, 2]);
        assert_eq!(dir.servers(), vec![NodeId(10), NodeId(20)]);
        let page = LockName::Page { area: 2, page: 7 };
        assert_eq!(dir.lock_owner(&page), Some(NodeId(20)));
        let file = LockName::File { db: 0, file: 1 };
        assert_eq!(dir.lock_owner(&file), Some(NodeId(10)));
    }
}
