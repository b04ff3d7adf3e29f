package chaos

import (
	"fmt"
	"sort"
	"time"
)

// controlClasses are the classes the shipped profiles attack: every
// class whose loss, delay, or duplication the protocol must tolerate.
// ClassData and ClassMigData are deliberately absent — see the class
// docs.
var controlClasses = []Class{
	ClassMarker, ClassRouteUpdate, ClassCommand, ClassReport,
}

func uniformPolicy(classes []Class, p ClassPolicy) [numClasses]ClassPolicy {
	var out [numClasses]ClassPolicy
	for _, c := range classes {
		out[c] = p
	}
	return out
}

// builtins returns the named profile set. Built fresh per call so
// callers may mutate their copy.
func builtins() map[string]Profile {
	return map[string]Profile{
		"none": {Name: "none"},
		"droponly": {
			Name:     "droponly",
			Policies: uniformPolicy(controlClasses, ClassPolicy{Drop: 0.25}),
		},
		"delayonly": {
			Name: "delayonly",
			Policies: uniformPolicy(controlClasses, ClassPolicy{
				Delay: 0.35, DelayMin: time.Millisecond, DelayMax: 20 * time.Millisecond,
			}),
		},
		"duponly": {
			Name:     "duponly",
			Policies: uniformPolicy(controlClasses, ClassPolicy{Dup: 0.35}),
		},
		"mixed": {
			Name: "mixed",
			Policies: uniformPolicy(controlClasses, ClassPolicy{
				Drop: 0.15, Dup: 0.10,
				Delay: 0.15, DelayMin: time.Millisecond, DelayMax: 15 * time.Millisecond,
			}),
			StallProb: 0.002,
			StallMin:  time.Millisecond,
			StallMax:  10 * time.Millisecond,
		},
	}
}

// Lookup resolves a profile by name. The empty name resolves to "none".
func Lookup(name string) (Profile, error) {
	if name == "" {
		name = "none"
	}
	p, ok := builtins()[name]
	if !ok {
		return Profile{}, fmt.Errorf("chaos: unknown profile %q (have %v)", name, Names())
	}
	return p, nil
}

// Names lists the built-in profile names, sorted.
func Names() []string {
	m := builtins()
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
