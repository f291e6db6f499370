//! Accept-path behavior under file-descriptor exhaustion (EMFILE): the
//! server must neither spin hot (a level-triggered listener with a
//! non-empty backlog re-wakes `epoll_wait` instantly forever) nor wedge,
//! existing connections must keep being served, and once fds free up the
//! parked handshake must be accepted and served.
//!
//! RLIMIT_NOFILE is process-wide state, so this lives in its own test
//! binary with a single `#[test]` — sharing a process with other tests
//! would make their fd usage (and the harness's own files) part of the
//! experiment.
#![cfg(target_os = "linux")]

use ldap::client::TcpDirectory;
use ldap::dit::Dit;
use ldap::dn::Dn;
use ldap::entry::Entry;
use ldap::proto::{FrameReader, LdapMessage, ProtocolOp};
use ldap::server::Server;
use ldap::{Directory, Filter, ResultCode, Scope};
use std::fs::File;
use std::io::Write;
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

#[repr(C)]
struct Rlimit {
    cur: u64,
    max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut Rlimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const Rlimit) -> i32;
}

const RLIMIT_NOFILE: i32 = 7;

fn nofile_soft() -> u64 {
    let mut lim = Rlimit { cur: 0, max: 0 };
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    lim.cur
}

fn set_nofile_soft(cur: u64) {
    let mut lim = Rlimit { cur: 0, max: 0 };
    assert_eq!(unsafe { getrlimit(RLIMIT_NOFILE, &mut lim) }, 0);
    let capped = Rlimit {
        cur: cur.min(lim.max),
        max: lim.max,
    };
    assert_eq!(
        unsafe { setrlimit(RLIMIT_NOFILE, &capped) },
        0,
        "setrlimit(RLIMIT_NOFILE)"
    );
}

fn used_fds() -> u64 {
    std::fs::read_dir("/proc/self/fd").expect("procfs").count() as u64
}

fn test_dit() -> std::sync::Arc<Dit> {
    let dit = Dit::new();
    dit.add(Entry::with_attrs(
        Dn::parse("o=Test").unwrap(),
        [("objectClass", "organization"), ("o", "Test")],
    ))
    .unwrap();
    dit.add(Entry::with_attrs(
        Dn::parse("cn=alice,o=Test").unwrap(),
        [("objectClass", "person"), ("cn", "alice"), ("sn", "A")],
    ))
    .unwrap();
    dit
}

/// One search request/response round-trip over a raw socket.
fn roundtrip(sock: &TcpStream, frames: &mut FrameReader<TcpStream>, id: i64) {
    (&*sock)
        .write_all(
            &LdapMessage {
                id,
                op: ProtocolOp::SearchRequest {
                    base: "cn=alice,o=Test".into(),
                    scope: Scope::Base,
                    size_limit: 0,
                    filter: Filter::match_all(),
                    attrs: vec![],
                },
            }
            .encode(),
        )
        .expect("search write");
    let mut saw_entry = false;
    loop {
        let frame = frames.next_frame().expect("readable").expect("open");
        let msg = LdapMessage::decode(frame).expect("decode");
        assert_eq!(msg.id, id);
        match msg.op {
            ProtocolOp::SearchResultEntry { dn, .. } => {
                assert_eq!(dn, "cn=alice,o=Test");
                saw_entry = true;
            }
            ProtocolOp::SearchResultDone(r) => {
                assert_eq!(r.code, ResultCode::Success);
                break;
            }
            other => panic!("unexpected op: {other:?}"),
        }
    }
    assert!(saw_entry, "base search must return the entry");
}

#[test]
fn accept_backs_off_and_recovers_after_fd_exhaustion() {
    let original_soft = nofile_soft();
    let mut server = Server::builder()
        .start(test_dit(), "127.0.0.1:0")
        .expect("server");
    let metrics = server.metrics();
    let addr = server.addr().to_string();

    // A connection established before the famine: it must stay served
    // throughout.
    let pre = TcpStream::connect(&addr).expect("pre-famine connect");
    pre.set_nodelay(true).unwrap();
    pre.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut pre_frames = FrameReader::new(pre.try_clone().expect("clone"));
    roundtrip(&pre, &mut pre_frames, 1);

    // Choke the process: clamp the soft limit just above current usage,
    // then hoard every remaining fd slot.
    set_nofile_soft(used_fds() + 16);
    let mut hoard: Vec<File> = Vec::new();
    // Runs until EMFILE: the fd table is full.
    while let Ok(f) = File::open("/dev/null") {
        hoard.push(f);
    }
    assert!(!hoard.is_empty(), "hoard grabbed the spare slots");

    // Free exactly one slot for the client half of the next handshake;
    // the server side's accept(2) then has zero slots and hits EMFILE.
    hoard.pop();
    let starved = TcpStream::connect(&addr).expect("handshake parks in the accept backlog");
    starved.set_nodelay(true).ok();
    starved
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();

    let deadline = Instant::now() + Duration::from_secs(10);
    while metrics.accept_pauses.load(Ordering::Relaxed) == 0 {
        assert!(
            Instant::now() < deadline,
            "accept never hit EMFILE / never counted a pause"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    // While starved: the established connection still round-trips —
    // the engine is neither spinning hot on the listener nor wedged.
    for id in 2..=4 {
        roundtrip(&pre, &mut pre_frames, id);
    }
    std::thread::sleep(Duration::from_millis(200));
    let pauses_during = metrics.accept_pauses.load(Ordering::Relaxed);
    assert!(
        pauses_during <= 16,
        "backoff must be bounded, saw {pauses_during} pauses \
         (a hot retry loop would rack up thousands)"
    );

    // Relief: free the hoard. The parked listener re-arms on its timer
    // and the starved handshake gets accepted and served.
    drop(hoard);
    set_nofile_soft(original_soft);
    let mut starved_frames = FrameReader::new(starved.try_clone().expect("clone"));
    roundtrip(&starved, &mut starved_frames, 1);

    // And new connections work again.
    let post = TcpStream::connect(&addr).expect("post-famine connect");
    post.set_nodelay(true).unwrap();
    post.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut post_frames = FrameReader::new(post.try_clone().expect("clone"));
    roundtrip(&post, &mut post_frames, 1);

    assert!(
        metrics.accept_pauses.load(Ordering::Relaxed) >= 1,
        "the famine was observed"
    );
    // TcpDirectory double-checks the served path end-to-end.
    let dir = TcpDirectory::connect(&addr).expect("client");
    let hits = dir
        .search(
            &Dn::parse("o=Test").unwrap(),
            Scope::Sub,
            &Filter::parse("(cn=alice)").unwrap(),
            &[],
            0,
        )
        .expect("search after recovery");
    assert_eq!(hits.len(), 1);
    dir.unbind();
    server.shutdown();
}
