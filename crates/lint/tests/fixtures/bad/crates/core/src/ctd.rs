//! Fixture: a budgeted fn that never consumes its budget, whose
//! unbounded loop never ticks; an unjustified waiver; and a waiver
//! naming a rule that does not exist.

pub fn drain(n_max: usize, budget: &Budget) -> usize {
    let mut n = 0;
    while n < n_max {
        n += 1;
    }
    n
}

// lint:allow(budget-tick)
pub const UNRELATED_A: u32 = 1;

// lint:allow(made-up-rule): the rule name is wrong on purpose
pub const UNRELATED_B: u32 = 2;
