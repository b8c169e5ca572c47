//! `unreached-pub` fixture: an example calling the library.

fn main() {
    println!("{}", grid_des::fixture::called_from_example());
}
