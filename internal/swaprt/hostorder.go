//go:build !(amd64 || arm64 || loong64 || mips64le || ppc64le || riscv64 || wasm)

package swaprt

// A numeric slice of the registered state is sent from its own memory
// and received into it (wireBytes). That memory is the wire encoding only
// on a little-endian host whose int, uint and uintptr are 64 bits wide:
// the 64-bit little-endian GOARCHes listed in the build line above. On
// any other the package must not build, and this names why.
const _ = swaprt_needs_a_64_bit_little_endian_host_where_a_number_in_memory_is_its_wire_encoding
