// Package reach holds one test, TestInternalNamesAreReached: it type-checks
// the module, and the modules nested in it, and fails on any exported name of
// an internal package that no non-test file references, unless it is a
// method its type needs to implement an interface declaring it, or an
// allowlist in the test names it with a reason. Code that only tests call —
// such as the heap tree's second query implementation, deleted once the flat
// tree served alone — cannot then grow back unseen.
package reach
