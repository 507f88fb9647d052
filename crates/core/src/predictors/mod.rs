//! Concrete predictor implementations.
//!
//! Each submodule holds one scheme, its configuration type, and unit
//! tests exercising the behaviours the paper attributes to it.

pub mod agree;
pub mod bimodal;
pub mod bimode;
pub mod cascade;
pub mod delayed;
pub mod flushed;
pub mod gselect;
pub mod gshare;
pub mod gskew;
pub mod perceptron;
pub mod statics;
pub mod tage;
pub mod tournament;
pub mod trimode;
pub mod two_level;
pub mod twobcgskew;
pub mod yags;
