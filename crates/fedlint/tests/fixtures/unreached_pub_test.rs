//! `unreached-pub` fixture: an integration test calling the library.

use grid_des::fixture::called_from_tests;

#[test]
fn reaches_the_library() {
    let total = called_from_tests();
    assert_eq!(total, 5);
}
