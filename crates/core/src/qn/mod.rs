//! Multi-class closed queueing networks.
//!
//! [`ClosedNetwork`] is the solver-facing representation: a set of stations
//! (queueing or delay) with class-independent mean service times, a set of
//! classes with fixed populations, and a visit-ratio matrix. The MVA solvers
//! in [`crate::mva`] operate on this structure; [`build`] constructs the
//! MMS instance of it from a [`crate::params::SystemConfig`], and
//! `translation` tabulates the node translations that let a symmetric
//! MMS network be built, solved and reported from class 0.

pub mod build;
pub(crate) mod translation;

use std::borrow::Cow;

use crate::error::{LtError, Result};
use crate::num::exactly_zero;

/// Queueing discipline of a station.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Discipline {
    /// Single-server FCFS queue (exponential service in the stochastic
    /// interpretation; MVA only needs the mean).
    Queueing,
    /// Infinite-server (pure delay): customers never queue.
    Delay,
}

/// One service center.
#[derive(Debug, Clone, PartialEq)]
pub struct Station {
    /// Human-readable name. [`build::build_network`] names a station by
    /// its kind (`"mem"`); its index in `stations` tells the nodes apart.
    pub name: Cow<'static, str>,
    /// Mean service time per visit (class-independent; `>= 0`).
    pub service: f64,
    /// Queueing or delay.
    pub discipline: Discipline,
}

impl Station {
    /// A FCFS queueing station.
    pub fn queueing(name: impl Into<Cow<'static, str>>, service: f64) -> Self {
        Station {
            name: name.into(),
            service,
            discipline: Discipline::Queueing,
        }
    }

    /// An infinite-server delay station.
    pub fn delay(name: impl Into<Cow<'static, str>>, service: f64) -> Self {
        Station {
            name: name.into(),
            service,
            discipline: Discipline::Delay,
        }
    }
}

/// A multi-class closed queueing network.
///
/// Classes are closed chains: class `i` holds `populations[i]` customers
/// forever. `visits[i][m]` is the mean number of visits a class-`i` customer
/// makes to station `m` between two consecutive visits to its *reference
/// station* (the station with visit ratio 1 that throughput is reported
/// against).
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedNetwork {
    /// Service centers.
    pub stations: Vec<Station>,
    /// Customers per class.
    pub populations: Vec<usize>,
    /// `visits[class][station]`, all `>= 0`.
    pub visits: Vec<Vec<f64>>,
}

impl ClosedNetwork {
    /// Number of stations `M`.
    pub fn n_stations(&self) -> usize {
        self.stations.len()
    }

    /// Number of classes `C`.
    pub fn n_classes(&self) -> usize {
        self.populations.len()
    }

    /// Total population over all classes.
    pub fn total_population(&self) -> usize {
        self.populations.iter().sum()
    }

    /// Service demand of class `i` at station `m`: `visits · service`.
    pub fn demand(&self, class: usize, station: usize) -> f64 {
        self.visits[class][station] * self.stations[station].service
    }

    /// Structural validation: shapes agree, values are sane.
    pub fn validate(&self) -> Result<()> {
        if self.stations.is_empty() {
            return Err(LtError::InvalidConfig("network has no stations".into()));
        }
        if self.populations.is_empty() {
            return Err(LtError::InvalidConfig("network has no classes".into()));
        }
        if self.visits.len() != self.n_classes() {
            return Err(LtError::InvalidConfig(
                "visits matrix row count != class count".into(),
            ));
        }
        for (i, row) in self.visits.iter().enumerate() {
            if row.len() != self.n_stations() {
                return Err(LtError::InvalidConfig(format!(
                    "visits row {i} length != station count"
                )));
            }
            if row.iter().any(|v| !v.is_finite() || *v < 0.0) {
                return Err(LtError::InvalidConfig(format!(
                    "visits row {i} contains negative or non-finite entries"
                )));
            }
            if row.iter().all(|v| exactly_zero(*v)) {
                return Err(LtError::InvalidConfig(format!(
                    "class {i} visits no station"
                )));
            }
        }
        for (m, st) in self.stations.iter().enumerate() {
            if !st.service.is_finite() || st.service < 0.0 {
                return Err(LtError::InvalidConfig(format!(
                    "station {m} ({}) has invalid service time",
                    st.name
                )));
            }
        }
        if self.populations.contains(&0) {
            return Err(LtError::InvalidConfig(
                "every class must have population >= 1".into(),
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A classic two-station single-class machine-repair network used by
    /// several solver tests.
    pub(crate) fn two_station_single_class(n: usize, s0: f64, s1: f64) -> ClosedNetwork {
        ClosedNetwork {
            stations: vec![Station::queueing("cpu", s0), Station::queueing("disk", s1)],
            populations: vec![n],
            visits: vec![vec![1.0, 1.0]],
        }
    }

    #[test]
    fn validation_happy_path() {
        two_station_single_class(3, 1.0, 2.0).validate().unwrap();
    }

    #[test]
    fn validation_catches_shape_errors() {
        let mut net = two_station_single_class(3, 1.0, 2.0);
        net.visits[0].pop();
        assert!(net.validate().is_err());

        let mut net = two_station_single_class(3, 1.0, 2.0);
        net.visits[0] = vec![0.0, 0.0];
        assert!(net.validate().is_err());

        let mut net = two_station_single_class(3, 1.0, 2.0);
        net.populations[0] = 0;
        assert!(net.validate().is_err());

        let mut net = two_station_single_class(3, 1.0, 2.0);
        net.stations[0].service = -1.0;
        assert!(net.validate().is_err());
    }

    #[test]
    fn invalid_service_error_names_the_station() {
        let mut net = two_station_single_class(3, 1.0, 2.0);
        net.stations[1].service = -0.5;
        match net.validate() {
            Err(LtError::InvalidConfig(msg)) => {
                assert!(msg.contains("station 1 (disk)"), "{msg}")
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn demand_is_visits_times_service() {
        let net = two_station_single_class(3, 1.5, 2.0);
        assert_eq!(net.demand(0, 0), 1.5);
        assert_eq!(net.demand(0, 1), 2.0);
    }
}
