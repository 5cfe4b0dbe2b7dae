//! `arkfs-shell`: an interactive shell over an in-memory ArkFS
//! deployment — the fastest way to poke at the file system's semantics
//! (leases, ACLs, the raw object layout) without writing a program.
//!
//! ```text
//! $ cargo run --release -p arkfs-cli
//! arkfs:/> mkdir projects
//! arkfs:/> cd projects
//! arkfs:/projects> put report.txt "quarterly numbers"
//! arkfs:/projects> ls -l
//! arkfs:/projects> objects
//! ```

use arkfs::{ArkClient, ArkCluster, ArkConfig};
use arkfs_objstore::{ClusterConfig, KeyKind, ObjectCluster, ObjectStore};
use arkfs_simkit::{ClusterSpec, Port, SEC};
use arkfs_vfs::{
    path as vpath, read_file, write_file, Credentials, FileType, FsError, FsResult, SetAttr, Vfs,
};
use std::sync::Arc;

pub mod net;

/// Shell session state.
pub struct Shell {
    pub cluster: Arc<ArkCluster>,
    pub store: Arc<ObjectCluster>,
    pub client: Arc<ArkClient>,
    pub cwd: String,
    pub ctx: Credentials,
}

impl Default for Shell {
    fn default() -> Self {
        Self::new()
    }
}

impl Shell {
    /// A fresh single-client deployment on a RADOS-profile store.
    pub fn new() -> Self {
        let spec = ClusterSpec::aws_paper();
        let store = Arc::new(ObjectCluster::new(ClusterConfig::rados(spec)));
        let cluster = ArkCluster::new(
            ArkConfig::default(),
            Arc::clone(&store) as Arc<dyn ObjectStore>,
        );
        let client = cluster.client();
        // The shell is a debugging surface, so the flight recorder is
        // always on: every op leaves a bounded trail of structured
        // events that `obs dump` can surface after the fact.
        cluster.telemetry().flight.set_enabled(true);
        Shell {
            cluster,
            store,
            client,
            cwd: "/".to_string(),
            ctx: Credentials::root(),
        }
    }

    /// Resolve a possibly-relative path against the cwd.
    pub fn resolve(&self, arg: &str) -> String {
        let joined = if arg.starts_with('/') {
            arg.to_string()
        } else if self.cwd == "/" {
            format!("/{arg}")
        } else {
            format!("{}/{arg}", self.cwd)
        };
        // Normalize `.` and `..` shell-side.
        let mut comps: Vec<&str> = Vec::new();
        for c in joined.split('/') {
            match c {
                "" | "." => {}
                ".." => {
                    comps.pop();
                }
                other => comps.push(other),
            }
        }
        vpath::join(&comps)
    }

    /// Execute one command line; returns the output text.
    pub fn exec(&mut self, line: &str) -> Result<String, String> {
        let parts = tokenize(line);
        let Some((cmd, args)) = parts.split_first() else {
            return Ok(String::new());
        };
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        self.dispatch(cmd, &args).map_err(|e| format!("{cmd}: {e}"))
    }

    fn dispatch(&mut self, cmd: &str, args: &[&str]) -> FsResult<String> {
        let fs = Arc::clone(&self.client);
        match cmd {
            "help" => Ok(HELP.to_string()),
            "pwd" => Ok(self.cwd.clone()),
            "cd" => {
                let path = self.resolve(args.first().copied().unwrap_or("/"));
                let st = fs.stat(&self.ctx, &path)?;
                if st.ftype != FileType::Directory {
                    return Err(FsError::NotADirectory);
                }
                self.cwd = path;
                Ok(String::new())
            }
            "ls" => {
                let long = args.contains(&"-l");
                let target = args
                    .iter()
                    .find(|a| !a.starts_with('-'))
                    .copied()
                    .unwrap_or(".");
                let path = self.resolve(target);
                let entries = fs.readdir(&self.ctx, &path)?;
                let mut out = String::new();
                for e in entries {
                    if long {
                        let st = fs.stat(
                            &self.ctx,
                            &self.resolve(&format!(
                                "{}/{}",
                                if path == "/" { "" } else { &path },
                                e.name
                            )),
                        )?;
                        let kind = match st.ftype {
                            FileType::Directory => 'd',
                            FileType::Symlink => 'l',
                            FileType::Regular => '-',
                        };
                        out.push_str(&format!(
                            "{kind}{:03o} {:>5}:{:<5} {:>10}  {}\n",
                            st.mode, st.uid, st.gid, st.size, e.name
                        ));
                    } else {
                        out.push_str(&e.name);
                        out.push('\n');
                    }
                }
                Ok(out)
            }
            "mkdir" => {
                for a in args {
                    let path = self.resolve(a);
                    fs.mkdir(&self.ctx, &path, 0o755)?;
                }
                Ok(String::new())
            }
            "put" => {
                let (path, content) = two_args(args)?;
                write_file(&*fs, &self.ctx, &self.resolve(path), content.as_bytes())?;
                Ok(String::new())
            }
            "cat" => {
                let path = self.resolve(one_arg(args)?);
                let data = read_file(&*fs, &self.ctx, &path)?;
                Ok(String::from_utf8_lossy(&data).into_owned())
            }
            "stat" => {
                let path = self.resolve(one_arg(args)?);
                let st = fs.stat(&self.ctx, &path)?;
                Ok(format!(
                    "ino: {:032x}\ntype: {:?}\nmode: {:04o}\nowner: {}:{}\nnlink: {}\nsize: {}\nmtime: {} ns",
                    st.ino, st.ftype, st.mode, st.uid, st.gid, st.nlink, st.size, st.mtime
                ))
            }
            "rm" => {
                for a in args {
                    fs.unlink(&self.ctx, &self.resolve(a))?;
                }
                Ok(String::new())
            }
            "rmdir" => {
                for a in args {
                    fs.rmdir(&self.ctx, &self.resolve(a))?;
                }
                Ok(String::new())
            }
            "mv" => {
                let (from, to) = two_args(args)?;
                fs.rename(&self.ctx, &self.resolve(from), &self.resolve(to))?;
                Ok(String::new())
            }
            "truncate" => {
                let (path, size) = two_args(args)?;
                let size: u64 = size.parse().map_err(|_| FsError::InvalidArgument)?;
                fs.truncate(&self.ctx, &self.resolve(path), size)?;
                Ok(String::new())
            }
            "chmod" => {
                let (mode, path) = two_args(args)?;
                let mode = u32::from_str_radix(mode, 8).map_err(|_| FsError::InvalidArgument)?;
                fs.setattr(&self.ctx, &self.resolve(path), &SetAttr::chmod(mode))?;
                Ok(String::new())
            }
            "chown" => {
                let (owner, path) = two_args(args)?;
                let (uid, gid) = owner.split_once(':').ok_or(FsError::InvalidArgument)?;
                let uid = uid.parse().map_err(|_| FsError::InvalidArgument)?;
                let gid = gid.parse().map_err(|_| FsError::InvalidArgument)?;
                fs.setattr(&self.ctx, &self.resolve(path), &SetAttr::chown(uid, gid))?;
                Ok(String::new())
            }
            "ln" => {
                let (target, link) = two_args(args)?;
                fs.symlink(&self.ctx, &self.resolve(link), target)?;
                Ok(String::new())
            }
            "readlink" => Ok(fs.readlink(&self.ctx, &self.resolve(one_arg(args)?))?),
            "tree" => {
                let path = self.resolve(args.first().copied().unwrap_or("."));
                let mut out = String::new();
                self.tree(&path, 0, &mut out)?;
                Ok(out)
            }
            "su" => {
                let uid: u32 = one_arg(args)?
                    .parse()
                    .map_err(|_| FsError::InvalidArgument)?;
                self.ctx = if uid == 0 {
                    Credentials::root()
                } else {
                    Credentials::user(uid)
                };
                Ok(format!("now uid {uid}"))
            }
            "sync" => {
                fs.sync_all(&self.ctx)?;
                Ok(String::new())
            }
            "objects" => {
                // Peek at the raw object layout behind the namespace.
                let port = Port::new();
                let keys = self
                    .store
                    .list(&port, None, None)
                    .map_err(|e| FsError::Io(e.to_string()))?;
                let count = |k: KeyKind| keys.iter().filter(|key| key.kind == k).count();
                Ok(format!(
                    "{} objects: {} inodes, {} dentry buckets, {} journal txns, {} data chunks\n{} logical bytes stored",
                    keys.len(),
                    count(KeyKind::Inode),
                    count(KeyKind::Dentry),
                    count(KeyKind::Journal),
                    count(KeyKind::Data),
                    self.store.stored_bytes(),
                ))
            }
            "df" => {
                let st = fs.statfs(&self.ctx)?;
                Ok(format!(
                    "{} inodes, {} store objects, {} logical bytes",
                    st.inodes, st.store_objects, st.store_bytes
                ))
            }
            "leases" => Ok(format!(
                "this client leads {} directories",
                self.client.led_directories()
            )),
            "time" => Ok(format!(
                "virtual time: {:.6} s",
                self.client.port().now() as f64 / SEC as f64
            )),
            "obs" => {
                let tel = self.cluster.telemetry();
                match args.first().copied() {
                    Some("dump") => {
                        // Fold the ring-loss counters into the registry so
                        // the dump is self-contained.
                        tel.publish_ring_losses();
                        let json = tel.flight.dump_json();
                        if let Some(path) = args.get(1) {
                            std::fs::write(path, &json).map_err(|e| FsError::Io(e.to_string()))?;
                            Ok(format!("wrote flight recorder dump to {path}"))
                        } else {
                            Ok(json)
                        }
                    }
                    Some(other) => Err(FsError::Io(format!(
                        "unknown obs subcommand '{other}' (try `obs` or `obs dump`)"
                    ))),
                    None => {
                        let spans = tel.tracer.events().len();
                        Ok(format!(
                            "tracing: {} ({} spans buffered, {} dropped)\n\
                             flight recorder: {} ({} events buffered, {} truncated)\n\
                             subcommands: obs dump [file]  write flight events as JSON",
                            if tel.tracer.enabled() { "on" } else { "off" },
                            spans,
                            tel.tracer.dropped(),
                            if tel.flight.enabled() { "on" } else { "off" },
                            tel.flight.events().len(),
                            tel.flight.truncated(),
                        ))
                    }
                }
            }
            _ => Err(FsError::Unsupported("unknown command (try `help`)")),
        }
    }

    fn tree(&self, path: &str, depth: usize, out: &mut String) -> FsResult<()> {
        for e in self.client.readdir(&self.ctx, path)? {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&e.name);
            if e.ftype == FileType::Directory {
                out.push('/');
                out.push('\n');
                let child = if path == "/" {
                    format!("/{}", e.name)
                } else {
                    format!("{path}/{}", e.name)
                };
                self.tree(&child, depth + 1, out)?;
            } else {
                out.push('\n');
            }
        }
        Ok(())
    }
}

fn one_arg<'a>(args: &[&'a str]) -> FsResult<&'a str> {
    args.first().copied().ok_or(FsError::InvalidArgument)
}

fn two_args<'a>(args: &[&'a str]) -> FsResult<(&'a str, &'a str)> {
    match args {
        [a, b, ..] => Ok((a, b)),
        _ => Err(FsError::InvalidArgument),
    }
}

/// Split a command line into tokens, honouring double quotes.
pub fn tokenize(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    for ch in line.chars() {
        match ch {
            '"' => quoted = !quoted,
            c if c.is_whitespace() && !quoted => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

pub const HELP: &str = "\
commands:
  ls [-l] [path]     list directory        mkdir <p>...        create directories
  cd <p> / pwd       navigate              put <p> \"text\"      write a file
  cat <p>            print a file          rm / rmdir <p>...   remove
  mv <a> <b>         rename (2PC across dirs)
  stat <p>           inode details         truncate <p> <n>    resize
  chmod <oct> <p>    permissions           chown <u:g> <p>     ownership
  ln <target> <link> symlink               readlink <p>        read link
  tree [p]           recursive listing     su <uid>            switch identity
  objects            raw object layout     leases              led directories
  df                 filesystem stats      obs                 observability status
  obs dump [file]    flight-recorder JSON (per-op event trail)
  sync               flush everything      time                virtual clock
";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_honours_quotes() {
        assert_eq!(
            tokenize(r#"put f.txt "hello world" x"#),
            vec!["put", "f.txt", "hello world", "x"]
        );
        assert_eq!(tokenize("  "), Vec::<String>::new());
        assert_eq!(tokenize("ls -l /"), vec!["ls", "-l", "/"]);
    }

    #[test]
    fn path_resolution_with_cwd() {
        let mut sh = Shell::new();
        assert_eq!(sh.resolve("a"), "/a");
        assert_eq!(sh.resolve("/x/y"), "/x/y");
        sh.cwd = "/deep/dir".into();
        assert_eq!(sh.resolve("f"), "/deep/dir/f");
        assert_eq!(sh.resolve(".."), "/deep");
        assert_eq!(sh.resolve("../../.."), "/");
        assert_eq!(sh.resolve("./a/./b"), "/deep/dir/a/b");
    }

    #[test]
    fn end_to_end_session() {
        let mut sh = Shell::new();
        sh.exec("mkdir projects").unwrap();
        sh.exec("cd projects").unwrap();
        assert_eq!(sh.exec("pwd").unwrap(), "/projects");
        sh.exec(r#"put report.txt "q1 numbers""#).unwrap();
        assert_eq!(sh.exec("cat report.txt").unwrap(), "q1 numbers");
        let ls = sh.exec("ls").unwrap();
        assert_eq!(ls.trim(), "report.txt");
        let stat = sh.exec("stat report.txt").unwrap();
        assert!(stat.contains("size: 10"), "{stat}");
        sh.exec("mkdir archive").unwrap();
        sh.exec("mv report.txt archive/r.txt").unwrap();
        assert!(sh.exec("cat archive/r.txt").unwrap().contains("q1"));
        let tree = sh.exec("tree /").unwrap();
        assert!(tree.contains("archive/"), "{tree}");
        assert!(tree.contains("r.txt"));
        let objects = sh.exec("sync").and_then(|_| sh.exec("objects")).unwrap();
        assert!(objects.contains("inodes"), "{objects}");
        // Permission flow.
        sh.exec("chmod 600 archive/r.txt").unwrap();
        sh.exec("chown 100:100 archive/r.txt").unwrap();
        sh.exec("su 200").unwrap();
        assert!(sh.exec("cat archive/r.txt").is_err(), "denied for uid 200");
        sh.exec("su 0").unwrap();
        // Errors are readable strings.
        let err = sh.exec("cat /missing").unwrap_err();
        assert!(err.contains("no such file"), "{err}");
    }

    #[test]
    fn obs_dump_surfaces_flight_events() {
        let mut sh = Shell::new();
        sh.exec("mkdir d").unwrap();
        sh.exec(r#"put d/f.txt "hello""#).unwrap();
        sh.exec("cat d/f.txt").unwrap();
        let status = sh.exec("obs").unwrap();
        assert!(status.contains("flight recorder: on"), "{status}");
        let dump = sh.exec("obs dump").unwrap();
        // Every traced op leaves op.begin/op.end flight events, each
        // stamped with the originating trace id.
        assert!(dump.contains("\"kind\":\"op.begin\""), "{dump}");
        assert!(dump.contains("\"kind\":\"op.end\""), "{dump}");
        assert!(dump.contains("\"trace\":"), "{dump}");
        assert!(sh.exec("obs bogus").is_err());
    }

    #[test]
    fn symlink_and_misc_commands() {
        let mut sh = Shell::new();
        sh.exec(r#"put real.txt "data""#).unwrap();
        sh.exec("ln /real.txt link").unwrap();
        assert_eq!(sh.exec("readlink link").unwrap(), "/real.txt");
        assert_eq!(sh.exec("cat link").unwrap(), "data");
        assert!(sh.exec("time").unwrap().contains("virtual time"));
        assert!(sh.exec("df").unwrap().contains("inodes"));
        assert!(sh.exec("leases").unwrap().contains("leads"));
        assert!(sh.exec("help").unwrap().contains("commands"));
        assert!(sh.exec("bogus").unwrap_err().contains("unknown command"));
        sh.exec("truncate real.txt 2").unwrap();
        assert_eq!(sh.exec("cat real.txt").unwrap(), "da");
        sh.exec("rm real.txt link").unwrap();
    }
}
