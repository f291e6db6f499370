//! Robustness of the LDAP wire stack: malformed clients must not take the
//! server (or other clients) down, and protocol errors surface as typed
//! result codes, not hangs.

use ldap::client::TcpDirectory;
use ldap::dit::{figure2_tree, Dit};
use ldap::dn::Dn;
use ldap::proto::{FrameReader, LdapMessage, ProtocolOp, NOTICE_OF_DISCONNECTION_OID};
use ldap::server::Server;
use ldap::{Directory, Filter, ResultCode, Scope};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn server() -> (Server, String) {
    let dit = Dit::new();
    figure2_tree(&dit).unwrap();
    let server = Server::start(dit, "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    (server, addr)
}

/// Read the unsolicited Notice of Disconnection (message ID 0, protocolError,
/// the RFC 2251 disconnection OID), then assert the connection closes.
fn expect_disconnect_notice(stream: &mut TcpStream) {
    stream
        .set_read_timeout(Some(Duration::from_secs(2)))
        .unwrap();
    let mut frames = FrameReader::new(&*stream);
    let frame = frames
        .next_frame()
        .expect("notice frame readable")
        .expect("notice frame present");
    let msg = LdapMessage::decode(frame).expect("notice decodes");
    assert_eq!(msg.id, 0, "unsolicited notices carry message ID 0");
    match msg.op {
        ProtocolOp::ExtendedResponse { result, name } => {
            assert_eq!(result.code, ResultCode::ProtocolError);
            assert_eq!(name.as_deref(), Some(NOTICE_OF_DISCONNECTION_OID));
        }
        other => panic!("expected ExtendedResponse, got {other:?}"),
    }
    assert!(
        !matches!(frames.next_frame(), Ok(Some(_))),
        "connection closed after the notice"
    );
}

#[test]
fn garbage_bytes_get_disconnect_notice() {
    let (_server, addr) = server();
    // A client that speaks garbage.
    let mut bad = TcpStream::connect(&addr).unwrap();
    bad.write_all(&[0xFF; 64]).unwrap();
    bad.flush().unwrap();
    // The server explains itself before closing.
    expect_disconnect_notice(&mut bad);
    // A well-behaved client on the same server still works.
    let good = TcpDirectory::connect(&addr).unwrap();
    let hits = good
        .search(
            &Dn::parse("o=Lucent").unwrap(),
            Scope::Sub,
            &Filter::match_all(),
            &[],
            0,
        )
        .unwrap();
    assert_eq!(hits.len(), 9);
}

#[test]
fn truncated_frame_closes_cleanly() {
    let (_server, addr) = server();
    let mut bad = TcpStream::connect(&addr).unwrap();
    // A valid-looking SEQUENCE header promising 100 bytes, then silence.
    bad.write_all(&[0x30, 0x64, 0x02, 0x01]).unwrap();
    drop(bad); // client gives up mid-frame
    let good = TcpDirectory::connect(&addr).unwrap();
    assert!(good
        .compare(
            &Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap(),
            "sn",
            "Doe",
        )
        .unwrap());
}

#[test]
fn oversized_frame_is_rejected() {
    let (_server, addr) = server();
    let mut bad = TcpStream::connect(&addr).unwrap();
    // Claim a 1 GiB body.
    bad.write_all(&[0x30, 0x84, 0x40, 0x00, 0x00, 0x00])
        .unwrap();
    bad.flush().unwrap();
    expect_disconnect_notice(&mut bad);
}

#[test]
fn errors_carry_result_codes_over_the_wire() {
    let (_server, addr) = server();
    let dir = TcpDirectory::connect(&addr).unwrap();
    // No such object.
    let err = dir
        .delete(&Dn::parse("cn=ghost,o=Lucent").unwrap())
        .unwrap_err();
    assert_eq!(err.code, ResultCode::NoSuchObject);
    // Non-leaf delete.
    let err = dir
        .delete(&Dn::parse("o=Marketing,o=Lucent").unwrap())
        .unwrap_err();
    assert_eq!(err.code, ResultCode::NotAllowedOnNonLeaf);
    // Size limit.
    let err = dir
        .search(
            &Dn::parse("o=Lucent").unwrap(),
            Scope::Sub,
            &Filter::match_all(),
            &[],
            2,
        )
        .unwrap_err();
    assert_eq!(err.code, ResultCode::SizeLimitExceeded);
    // Bad base DN.
    let err = dir
        .search(
            &Dn::parse("o=Nowhere").unwrap(),
            Scope::Base,
            &Filter::match_all(),
            &[],
            0,
        )
        .unwrap_err();
    assert_eq!(err.code, ResultCode::NoSuchObject);
}

#[test]
fn many_short_lived_connections() {
    let (_server, addr) = server();
    for _ in 0..50 {
        let dir = TcpDirectory::connect(&addr).unwrap();
        assert!(dir
            .get(&Dn::parse("cn=Jill Lu,o=R&D,o=Lucent").unwrap())
            .unwrap()
            .is_some());
        dir.unbind();
    }
}

#[test]
fn server_shutdown_stops_accepting() {
    let (mut server, addr) = server();
    server.shutdown();
    // New connections are refused or immediately closed.
    match TcpStream::connect(&addr) {
        Err(_) => {}
        Ok(mut s) => {
            s.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
            let msg = ldap::proto::LdapMessage {
                id: 1,
                op: ldap::proto::ProtocolOp::DelRequest { dn: "cn=a".into() },
            };
            let _ = s.write_all(&msg.encode());
            let mut buf = [0u8; 8];
            let n = s.read(&mut buf).unwrap_or(0);
            assert_eq!(n, 0, "no service after shutdown");
        }
    }
}
