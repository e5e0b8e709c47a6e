//! Error type for store operations.

use crate::types::RegionId;
use std::error::Error;
use std::fmt;

/// Why a store request failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// The region is hosted here but not (yet) online — it is opening or
    /// undergoing recovery — or not hosted by the contacted server at all.
    /// Clients refresh their region map and retry.
    NotServing(RegionId),
    /// No region containing the requested row is known to the server.
    RegionUnknown,
    /// The region map changed under the client (an online split): a
    /// `multi_put` flush addresses a region id that no longer exists on
    /// this server while a *different* hosted region covers its rows, or
    /// a read batch has rows outside the region serving its first row.
    /// The client must refresh its map and re-group the request by the
    /// new boundaries; retrying it unchanged can never succeed. Both
    /// batch paths (`multi_put` flushes and `multi_get` reads) self-heal
    /// this way.
    WrongRegion(RegionId),
    /// Data could not be served because no live filesystem replica holds
    /// the needed store file.
    Unavailable(String),
    /// The request never got a response (dead server, dropped message);
    /// synthesized client-side by the request timeout.
    TimedOut,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::NotServing(r) => write!(f, "region {r} is not being served"),
            StoreError::RegionUnknown => write!(f, "no region covers the requested row"),
            StoreError::WrongRegion(r) => {
                write!(f, "region {r} was replaced by a split; refresh the map")
            }
            StoreError::Unavailable(p) => write!(f, "store file unavailable: {p}"),
            StoreError::TimedOut => write!(f, "request timed out"),
        }
    }
}

impl Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert_eq!(
            StoreError::NotServing(RegionId(3)).to_string(),
            "region r3 is not being served"
        );
        assert_eq!(StoreError::TimedOut.to_string(), "request timed out");
        assert_eq!(
            StoreError::RegionUnknown.to_string(),
            "no region covers the requested row"
        );
        assert!(StoreError::Unavailable("/f".into())
            .to_string()
            .contains("/f"));
    }
}
