//! Empty offline stand-in: `baywatch-core` and `baywatch-mapreduce`
//! declare `parking_lot` but import nothing from it.
