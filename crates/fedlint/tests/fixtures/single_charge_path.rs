//! Fixture for `single-charge-path`: direct accounting writes in sim code.
fn bypass(state: &mut SharedState, record: JobRecord) {
    state.ledger.record(MessageType::Negotiate, 0, 1);
    state.audit.record_publish(0, 3);
    state.bank.pay(0, 1, 2.5);
    state.jobs.push(record);
    // The fold, a local ledger and look-alike names pass.
    state.record(Charge::Payment(0, 1, 2.5));
    ledger.record(MessageType::Reply, 1, 0);
    state.bank.payments();
}
#[cfg(test)]
mod tests {
    fn tests_may_write_stores_directly() { state.jobs.push(record); }
}
