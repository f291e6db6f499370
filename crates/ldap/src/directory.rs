//! The `Directory` trait: one uniform API over every way of reaching a
//! directory — the in-process DIT, a TCP client, or the LTAP gateway.
//!
//! MetaComm's Update Manager, the examples, and the benchmarks are all
//! written against this trait, so swapping the LTAP gateway between its
//! network and library deployments (paper §5.5) is a one-line change.

use crate::dit::{Dit, Scope};
use crate::dn::{Dn, Rdn};
use crate::entry::{Entry, Modification};
use crate::error::{LdapError, Result, ResultCode};
use crate::filter::Filter;
use std::sync::Arc;

/// Uniform LDAP operations. An implementor writes the four updates,
/// `compare`, and exactly one search — [`search_visit`](Directory::search_visit);
/// the collecting searches and `get` are provided on top of it.
pub trait Directory: Send + Sync {
    fn add(&self, entry: Entry) -> Result<()>;

    fn delete(&self, dn: &Dn) -> Result<()>;

    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()>;

    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()>;

    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool>;

    /// The one search: stream the entries under `base` that are in `scope`
    /// and match `filter`, projected to `attrs` (empty or containing `*` =
    /// all attributes), through `visit` in the directory's emission order;
    /// returns `(entries visited, truncated)`. A `size_limit` of 0 is
    /// unlimited; otherwise at most `size_limit` entries are visited and
    /// `truncated` says more matched — RFC 2251 `sizeLimitExceeded`, where
    /// the server sends the partial result set and then code 4. A missing
    /// `base` is `noSuchObject`.
    ///
    /// **Visitor contract.** `visit` may run under the implementor's lock —
    /// [`Dit`]'s store read lock (concurrent searches proceed, writers
    /// wait), [`TcpDirectory`](crate::client::TcpDirectory)'s connection
    /// mutex — so it must do bounded work and must not call back into the
    /// same directory. The wire server's visitor only appends to its
    /// encode buffer.
    fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)>;

    /// [`search_visit`](Directory::search_visit) collected: the entries up
    /// to the limit plus the "truncated" flag. Each entry is cloned out of
    /// the visitor; readers of large result sets should stream instead.
    fn search_capped(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
    ) -> Result<(Vec<Entry>, bool)> {
        let mut out = Vec::new();
        let (_, truncated) =
            self.search_visit(base, scope, filter, attrs, size_limit, &mut |e| {
                out.push(e.clone())
            })?;
        Ok((out, truncated))
    }

    /// [`search_capped`](Directory::search_capped) where exceeding a
    /// non-zero `size_limit` is a `sizeLimitExceeded` error.
    fn search(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
    ) -> Result<Vec<Entry>> {
        let (out, truncated) = self.search_capped(base, scope, filter, attrs, size_limit)?;
        if truncated {
            return Err(LdapError::new(
                ResultCode::SizeLimitExceeded,
                format!("more than {size_limit} entries match"),
            ));
        }
        Ok(out)
    }

    /// Fetch one entry by DN (`None` when absent).
    fn get(&self, dn: &Dn) -> Result<Option<Entry>> {
        let mut found = None;
        match self.search_visit(dn, Scope::Base, &Filter::match_all(), &[], 0, &mut |e| {
            found = Some(e.clone())
        }) {
            Ok(_) => Ok(found),
            Err(e) if e.code == ResultCode::NoSuchObject => Ok(None),
            Err(e) => Err(e),
        }
    }
}

/// The in-process implementation: direct calls into the DIT.
impl Directory for Dit {
    fn add(&self, entry: Entry) -> Result<()> {
        Dit::add(self, entry)
    }

    fn delete(&self, dn: &Dn) -> Result<()> {
        Dit::delete(self, dn)
    }

    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        Dit::modify(self, dn, mods)
    }

    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        Dit::modify_rdn(self, dn, new_rdn, delete_old, new_superior)
    }

    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        Dit::compare(self, dn, attr, value)
    }

    fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        Dit::search_visit(self, base, scope, filter, attrs, size_limit, visit)
    }
}

/// Blanket impl so `Arc<Dit>` (and `Arc<Gateway>` etc.) are Directories.
impl<T: Directory + ?Sized> Directory for Arc<T> {
    fn add(&self, entry: Entry) -> Result<()> {
        (**self).add(entry)
    }
    fn delete(&self, dn: &Dn) -> Result<()> {
        (**self).delete(dn)
    }
    fn modify(&self, dn: &Dn, mods: &[Modification]) -> Result<()> {
        (**self).modify(dn, mods)
    }
    fn modify_rdn(
        &self,
        dn: &Dn,
        new_rdn: &Rdn,
        delete_old: bool,
        new_superior: Option<&Dn>,
    ) -> Result<()> {
        (**self).modify_rdn(dn, new_rdn, delete_old, new_superior)
    }
    fn compare(&self, dn: &Dn, attr: &str, value: &str) -> Result<bool> {
        (**self).compare(dn, attr, value)
    }
    fn search_visit(
        &self,
        base: &Dn,
        scope: Scope,
        filter: &Filter,
        attrs: &[String],
        size_limit: usize,
        visit: &mut dyn FnMut(&Entry),
    ) -> Result<(usize, bool)> {
        (**self).search_visit(base, scope, filter, attrs, size_limit, visit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dit::figure2_tree;

    #[test]
    fn dit_implements_directory() {
        let dit: Arc<Dit> = Dit::new();
        figure2_tree(&dit).unwrap();
        let dir: &dyn Directory = &dit;
        let john = Dn::parse("cn=John Doe,o=Marketing,o=Lucent").unwrap();
        let e = dir.get(&john).unwrap().unwrap();
        assert_eq!(e.first("sn"), Some("Doe"));
        assert_eq!(
            dir.get(&Dn::parse("cn=ghost,o=Lucent").unwrap()).unwrap(),
            None
        );
    }

    #[test]
    fn arc_blanket_impl() {
        let dit = Dit::new();
        figure2_tree(&dit).unwrap();
        fn takes_directory(d: &impl Directory) -> usize {
            d.search(
                &Dn::parse("o=Lucent").unwrap(),
                Scope::Sub,
                &Filter::match_all(),
                &[],
                0,
            )
            .unwrap()
            .len()
        }
        assert_eq!(takes_directory(&dit), 9);
    }
}
