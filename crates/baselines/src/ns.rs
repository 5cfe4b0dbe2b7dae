//! A centralized in-memory namespace: the functional state held by a
//! metadata server cluster (CephFS MDS, MarFS's GPFS nodes).
//!
//! All methods take full paths and perform resolution + POSIX permission
//! checks internally, mirroring a server that owns the whole hierarchy.

use arkfs_simkit::hash::HashMap;
use arkfs_vfs::{
    path as vpath, perm, Acl, Credentials, DirEntry, FileType, FsError, FsResult, Ino, Nanos,
    SetAttr, Stat, AM_EXEC, AM_READ, AM_WRITE, ROOT_INO,
};
use std::collections::BTreeMap;

/// One node in the tree.
#[derive(Debug, Clone)]
pub struct Node {
    pub ino: Ino,
    pub ftype: FileType,
    pub mode: u32,
    pub uid: u32,
    pub gid: u32,
    pub nlink: u32,
    pub size: u64,
    pub atime: Nanos,
    pub mtime: Nanos,
    pub ctime: Nanos,
    pub acl: Acl,
    pub symlink_target: String,
    children: BTreeMap<String, Ino>,
}

impl Node {
    fn new(ino: Ino, ftype: FileType, mode: u32, uid: u32, gid: u32, now: Nanos) -> Self {
        Node {
            ino,
            ftype,
            mode: mode & 0o7777,
            uid,
            gid,
            nlink: if ftype == FileType::Directory { 2 } else { 1 },
            size: 0,
            atime: now,
            mtime: now,
            ctime: now,
            acl: Acl::default(),
            symlink_target: String::new(),
            children: BTreeMap::new(),
        }
    }

    pub fn stat(&self) -> Stat {
        Stat {
            ino: self.ino,
            ftype: self.ftype,
            mode: self.mode,
            uid: self.uid,
            gid: self.gid,
            nlink: self.nlink,
            size: self.size,
            atime: self.atime,
            mtime: self.mtime,
            ctime: self.ctime,
        }
    }
}

/// The whole hierarchy, owned by one logical metadata service.
#[derive(Debug)]
pub struct Namespace {
    nodes: HashMap<Ino, Node>,
    next_ino: u128,
}

impl Default for Namespace {
    fn default() -> Self {
        Self::new()
    }
}

impl Namespace {
    pub fn new() -> Self {
        let mut nodes = HashMap::default();
        nodes.insert(
            ROOT_INO,
            Node::new(ROOT_INO, FileType::Directory, 0o755, 0, 0, 0),
        );
        Namespace {
            nodes,
            next_ino: ROOT_INO + 1,
        }
    }

    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.nodes.len() <= 1
    }

    fn alloc_ino(&mut self) -> Ino {
        let ino = self.next_ino;
        self.next_ino += 1;
        ino
    }

    pub fn node(&self, ino: Ino) -> FsResult<&Node> {
        self.nodes.get(&ino).ok_or(FsError::Stale)
    }

    fn node_mut(&mut self, ino: Ino) -> FsResult<&mut Node> {
        self.nodes.get_mut(&ino).ok_or(FsError::Stale)
    }

    fn check(&self, ctx: &Credentials, node: &Node, want: u8) -> FsResult<()> {
        perm::check_access(ctx, node.uid, node.gid, node.mode, &node.acl, want)
    }

    /// Resolve a path to its inode, checking exec on every directory
    /// walked through (but not on the final component).
    pub fn resolve(&self, ctx: &Credentials, path: &str) -> FsResult<Ino> {
        let comps = vpath::components(path)?;
        let mut cur = ROOT_INO;
        for comp in comps {
            let node = self.node(cur)?;
            if node.ftype != FileType::Directory {
                return Err(FsError::NotADirectory);
            }
            self.check(ctx, node, AM_EXEC)?;
            cur = *node.children.get(comp).ok_or(FsError::NotFound)?;
        }
        Ok(cur)
    }

    /// Resolve the parent directory of a path; returns (parent ino, name).
    fn resolve_parent<'p>(&self, ctx: &Credentials, path: &'p str) -> FsResult<(Ino, &'p str)> {
        let (parents, name) = vpath::split_parent(path)?;
        let parent_path = vpath::join(&parents);
        let parent = self.resolve(ctx, &parent_path)?;
        let node = self.node(parent)?;
        if node.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        self.check(ctx, node, AM_EXEC)?;
        Ok((parent, name))
    }

    pub fn stat(&self, ctx: &Credentials, path: &str) -> FsResult<Stat> {
        Ok(self.node(self.resolve(ctx, path)?)?.stat())
    }

    pub fn mkdir(
        &mut self,
        ctx: &Credentials,
        path: &str,
        mode: u32,
        now: Nanos,
    ) -> FsResult<Stat> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        vpath::validate_name(name)?;
        self.check(ctx, self.node(parent)?, AM_WRITE | AM_EXEC)?;
        if self.node(parent)?.children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_ino();
        let node = Node::new(ino, FileType::Directory, mode, ctx.uid, ctx.gid, now);
        let stat = node.stat();
        self.nodes.insert(ino, node);
        let p = self.node_mut(parent)?;
        p.children.insert(name.to_string(), ino);
        p.nlink += 1;
        p.mtime = now;
        Ok(stat)
    }

    /// Create a regular file (exclusive). Returns its inode number.
    pub fn create(
        &mut self,
        ctx: &Credentials,
        path: &str,
        mode: u32,
        now: Nanos,
    ) -> FsResult<Ino> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        vpath::validate_name(name)?;
        self.check(ctx, self.node(parent)?, AM_WRITE | AM_EXEC)?;
        if self.node(parent)?.children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_ino();
        self.nodes.insert(
            ino,
            Node::new(ino, FileType::Regular, mode, ctx.uid, ctx.gid, now),
        );
        let p = self.node_mut(parent)?;
        p.children.insert(name.to_string(), ino);
        p.mtime = now;
        Ok(ino)
    }

    pub fn symlink(
        &mut self,
        ctx: &Credentials,
        path: &str,
        target: &str,
        now: Nanos,
    ) -> FsResult<Stat> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        vpath::validate_name(name)?;
        self.check(ctx, self.node(parent)?, AM_WRITE | AM_EXEC)?;
        if self.node(parent)?.children.contains_key(name) {
            return Err(FsError::AlreadyExists);
        }
        let ino = self.alloc_ino();
        let mut node = Node::new(ino, FileType::Symlink, 0o777, ctx.uid, ctx.gid, now);
        node.symlink_target = target.to_string();
        node.size = target.len() as u64;
        let stat = node.stat();
        self.nodes.insert(ino, node);
        let p = self.node_mut(parent)?;
        p.children.insert(name.to_string(), ino);
        p.mtime = now;
        Ok(stat)
    }

    pub fn readlink(&self, ctx: &Credentials, path: &str) -> FsResult<String> {
        let node = self.node(self.resolve(ctx, path)?)?;
        if node.ftype != FileType::Symlink {
            return Err(FsError::InvalidArgument);
        }
        Ok(node.symlink_target.clone())
    }

    pub fn readdir(&self, ctx: &Credentials, path: &str) -> FsResult<Vec<DirEntry>> {
        let node = self.node(self.resolve(ctx, path)?)?;
        if node.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        self.check(ctx, node, AM_READ)?;
        node.children
            .iter()
            .map(|(name, &ino)| {
                Ok(DirEntry {
                    name: name.clone(),
                    ino,
                    ftype: self.node(ino)?.ftype,
                })
            })
            .collect()
    }

    /// Unlink a file/symlink; returns (ino, size) so the caller can drop
    /// the data objects.
    pub fn unlink(&mut self, ctx: &Credentials, path: &str, now: Nanos) -> FsResult<(Ino, u64)> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        let &ino = self
            .node(parent)?
            .children
            .get(name)
            .ok_or(FsError::NotFound)?;
        let victim = self.node(ino)?;
        if victim.ftype == FileType::Directory {
            return Err(FsError::IsADirectory);
        }
        let victim_uid = victim.uid;
        let size = victim.size;
        let p = self.node(parent)?;
        perm::check_delete(ctx, p.uid, p.gid, p.mode, &p.acl, victim_uid)?;
        self.node_mut(parent)?.children.remove(name);
        self.node_mut(parent)?.mtime = now;
        self.nodes.remove(&ino);
        Ok((ino, size))
    }

    pub fn rmdir(&mut self, ctx: &Credentials, path: &str, now: Nanos) -> FsResult<()> {
        let (parent, name) = self.resolve_parent(ctx, path)?;
        let &ino = self
            .node(parent)?
            .children
            .get(name)
            .ok_or(FsError::NotFound)?;
        let victim = self.node(ino)?;
        if victim.ftype != FileType::Directory {
            return Err(FsError::NotADirectory);
        }
        if !victim.children.is_empty() {
            return Err(FsError::NotEmpty);
        }
        let victim_uid = victim.uid;
        let p = self.node(parent)?;
        perm::check_delete(ctx, p.uid, p.gid, p.mode, &p.acl, victim_uid)?;
        self.node_mut(parent)?.children.remove(name);
        let p = self.node_mut(parent)?;
        p.nlink = p.nlink.saturating_sub(1);
        p.mtime = now;
        self.nodes.remove(&ino);
        Ok(())
    }

    pub fn rename(&mut self, ctx: &Credentials, from: &str, to: &str, now: Nanos) -> FsResult<()> {
        let from_comps = vpath::components(from)?;
        let to_comps = vpath::components(to)?;
        if from_comps == to_comps {
            return Ok(());
        }
        if from_comps.is_empty() || to_comps.is_empty() {
            return Err(FsError::InvalidArgument);
        }
        if vpath::is_prefix_of(&from_comps, &to_comps) {
            return Err(FsError::InvalidArgument);
        }
        let (src_parent, src_name) = self.resolve_parent(ctx, from)?;
        let (dst_parent, dst_name) = self.resolve_parent(ctx, to)?;
        let &ino = self
            .node(src_parent)?
            .children
            .get(src_name)
            .ok_or(FsError::NotFound)?;
        let moving = self.node(ino)?;
        let moving_is_dir = moving.ftype == FileType::Directory;
        let moving_uid = moving.uid;
        let sp = self.node(src_parent)?;
        perm::check_delete(ctx, sp.uid, sp.gid, sp.mode, &sp.acl, moving_uid)?;
        self.check(ctx, self.node(dst_parent)?, AM_WRITE | AM_EXEC)?;
        // Target handling.
        if let Some(&target) = self.node(dst_parent)?.children.get(dst_name) {
            let t = self.node(target)?;
            match (moving_is_dir, t.ftype == FileType::Directory) {
                (false, true) => return Err(FsError::IsADirectory),
                (true, false) => return Err(FsError::NotADirectory),
                (true, true) if !t.children.is_empty() => return Err(FsError::NotEmpty),
                _ => {
                    self.nodes.remove(&target);
                    if moving_is_dir {
                        let dp = self.node_mut(dst_parent)?;
                        dp.nlink = dp.nlink.saturating_sub(1);
                    }
                }
            }
        }
        self.node_mut(src_parent)?.children.remove(src_name);
        self.node_mut(src_parent)?.mtime = now;
        self.node_mut(dst_parent)?
            .children
            .insert(dst_name.to_string(), ino);
        self.node_mut(dst_parent)?.mtime = now;
        if moving_is_dir && src_parent != dst_parent {
            let sp = self.node_mut(src_parent)?;
            sp.nlink = sp.nlink.saturating_sub(1);
            self.node_mut(dst_parent)?.nlink += 1;
        }
        self.node_mut(ino)?.ctime = now;
        Ok(())
    }

    pub fn set_size(&mut self, ino: Ino, size: u64, now: Nanos) -> FsResult<u64> {
        let node = self.node_mut(ino)?;
        let old = node.size;
        node.size = size;
        node.mtime = now;
        Ok(old)
    }

    pub fn setattr(
        &mut self,
        ctx: &Credentials,
        path: &str,
        attr: &SetAttr,
        now: Nanos,
    ) -> FsResult<Stat> {
        let ino = self.resolve(ctx, path)?;
        let owner = self.node(ino)?.uid;
        let changing_owner = attr.uid.is_some() || attr.gid.is_some();
        perm::check_setattr(ctx, owner, changing_owner)?;
        let node = self.node_mut(ino)?;
        if let Some(mode) = attr.mode {
            node.mode = mode & 0o7777;
        }
        if let Some(uid) = attr.uid {
            node.uid = uid;
        }
        if let Some(gid) = attr.gid {
            node.gid = gid;
        }
        if let Some(atime) = attr.atime {
            node.atime = atime;
        }
        if let Some(mtime) = attr.mtime {
            node.mtime = mtime;
        }
        node.ctime = now;
        Ok(node.stat())
    }

    pub fn set_acl(
        &mut self,
        ctx: &Credentials,
        path: &str,
        acl: &Acl,
        now: Nanos,
    ) -> FsResult<()> {
        let ino = self.resolve(ctx, path)?;
        let owner = self.node(ino)?.uid;
        perm::check_setattr(ctx, owner, false)?;
        let node = self.node_mut(ino)?;
        node.acl = acl.clone();
        node.ctime = now;
        Ok(())
    }

    pub fn get_acl(&self, ctx: &Credentials, path: &str) -> FsResult<Acl> {
        Ok(self.node(self.resolve(ctx, path)?)?.acl.clone())
    }

    pub fn access(&self, ctx: &Credentials, path: &str, want: u8) -> FsResult<()> {
        let node = self.node(self.resolve(ctx, path)?)?;
        self.check(ctx, node, want)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn root() -> Credentials {
        Credentials::root()
    }

    #[test]
    fn basic_tree_operations() {
        let mut ns = Namespace::new();
        let ctx = root();
        ns.mkdir(&ctx, "/a", 0o755, 1).unwrap();
        let ino = ns.create(&ctx, "/a/f", 0o644, 2).unwrap();
        assert_eq!(ns.stat(&ctx, "/a/f").unwrap().ino, ino);
        ns.set_size(ino, 100, 3).unwrap();
        assert_eq!(ns.stat(&ctx, "/a/f").unwrap().size, 100);
        let entries = ns.readdir(&ctx, "/a").unwrap();
        assert_eq!(entries.len(), 1);
        let (gone, size) = ns.unlink(&ctx, "/a/f", 4).unwrap();
        assert_eq!((gone, size), (ino, 100));
        ns.rmdir(&ctx, "/a", 5).unwrap();
        assert!(ns.is_empty());
    }

    #[test]
    fn duplicate_and_missing_errors() {
        let mut ns = Namespace::new();
        let ctx = root();
        ns.mkdir(&ctx, "/a", 0o755, 0).unwrap();
        assert_eq!(
            ns.mkdir(&ctx, "/a", 0o755, 0).err(),
            Some(FsError::AlreadyExists)
        );
        ns.create(&ctx, "/a/f", 0o644, 0).unwrap();
        assert_eq!(
            ns.create(&ctx, "/a/f", 0o644, 0).err(),
            Some(FsError::AlreadyExists)
        );
        assert_eq!(ns.stat(&ctx, "/zz").err(), Some(FsError::NotFound));
        assert_eq!(ns.unlink(&ctx, "/a", 0).err(), Some(FsError::IsADirectory));
        assert_eq!(
            ns.rmdir(&ctx, "/a/f", 0).err(),
            Some(FsError::NotADirectory)
        );
        assert_eq!(ns.rmdir(&ctx, "/a", 0).err(), Some(FsError::NotEmpty));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut ns = Namespace::new();
        let ctx = root();
        ns.mkdir(&ctx, "/d1", 0o755, 0).unwrap();
        ns.mkdir(&ctx, "/d2", 0o755, 0).unwrap();
        let f = ns.create(&ctx, "/d1/f", 0o644, 0).unwrap();
        ns.rename(&ctx, "/d1/f", "/d2/g", 1).unwrap();
        assert_eq!(ns.stat(&ctx, "/d2/g").unwrap().ino, f);
        assert_eq!(ns.stat(&ctx, "/d1/f").err(), Some(FsError::NotFound));
        // Replace an existing file.
        let f2 = ns.create(&ctx, "/d2/h", 0o644, 0).unwrap();
        ns.rename(&ctx, "/d2/g", "/d2/h", 2).unwrap();
        assert_eq!(ns.stat(&ctx, "/d2/h").unwrap().ino, f);
        assert!(ns.node(f2).is_err());
        // Directory onto non-empty directory fails.
        ns.mkdir(&ctx, "/d3", 0o755, 0).unwrap();
        assert_eq!(
            ns.rename(&ctx, "/d3", "/d2", 3).err(),
            Some(FsError::NotEmpty)
        );
        // Into own subtree fails.
        ns.mkdir(&ctx, "/d3/sub", 0o755, 0).unwrap();
        assert_eq!(
            ns.rename(&ctx, "/d3", "/d3/sub/x", 3).err(),
            Some(FsError::InvalidArgument)
        );
        // Directory nlink bookkeeping.
        ns.rename(&ctx, "/d3", "/d2/d3moved", 4).unwrap();
        assert_eq!(ns.stat(&ctx, "/d2").unwrap().nlink, 3);
    }

    #[test]
    fn permissions_enforced() {
        let mut ns = Namespace::new();
        let ctx = root();
        let alice = Credentials::user(100);
        ns.mkdir(&ctx, "/locked", 0o700, 0).unwrap();
        assert_eq!(
            ns.create(&alice, "/locked/f", 0o644, 0).err(),
            Some(FsError::PermissionDenied)
        );
        assert_eq!(ns.stat(&alice, "/locked").unwrap().mode, 0o700); // stat of the dir itself ok
        assert_eq!(
            ns.readdir(&alice, "/locked").err(),
            Some(FsError::PermissionDenied)
        );
        // setattr by non-owner.
        ns.create(&ctx, "/f", 0o644, 0).unwrap();
        assert_eq!(
            ns.setattr(&alice, "/f", &SetAttr::chmod(0o777), 0).err(),
            Some(FsError::NotPermitted)
        );
    }

    #[test]
    fn symlinks_work() {
        let mut ns = Namespace::new();
        let ctx = root();
        ns.symlink(&ctx, "/ln", "/target", 0).unwrap();
        assert_eq!(ns.readlink(&ctx, "/ln").unwrap(), "/target");
        ns.create(&ctx, "/plain", 0o644, 0).unwrap();
        assert_eq!(
            ns.readlink(&ctx, "/plain").err(),
            Some(FsError::InvalidArgument)
        );
    }

    #[test]
    fn acl_support() {
        use arkfs_vfs::AclEntry;
        let mut ns = Namespace::new();
        let ctx = root();
        let bob = Credentials::user(7);
        ns.create(&ctx, "/f", 0o600, 0).unwrap();
        assert!(ns.access(&bob, "/f", AM_READ).is_err());
        ns.set_acl(&ctx, "/f", &Acl::new(vec![AclEntry::user(7, 0o4)]), 1)
            .unwrap();
        ns.access(&bob, "/f", AM_READ).unwrap();
        assert_eq!(ns.get_acl(&ctx, "/f").unwrap().entries.len(), 1);
    }
}
