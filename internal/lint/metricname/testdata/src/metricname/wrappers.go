// Wrapper-following cases: names that reach a registration method
// through a named wrapper or a function-literal wrapper are vetted at the
// wrapper's call sites.
package fixture

// registerCounter forwards its name parameter into a registration call,
// making it a wrapper.
func registerCounter(reg *Registry, name string) {
	reg.Counter(name, "wrapped")
}

func useNamedWrapper(reg *Registry) {
	registerCounter(reg, "wrapped_total")
	registerCounter(reg, "wrapped") // want `must end in _total`
}

// useLitWrapper registers through a function literal bound to a local.
func useLitWrapper(reg *Registry) {
	counter := func(name, help string) { reg.Counter(name, help) }
	counter("bridged_total", "good")
	counter("Bridged_total", "bad") // want `not snake_case`
}
