package admission

import "testing"

func TestPriorityStrings(t *testing.T) {
	if Interactive.String() != "interactive" || Standard.String() != "standard" || Background.String() != "background" {
		t.Error("priority labels changed")
	}
	if Priority(9).String() != "Priority(9)" {
		t.Errorf("unknown priority = %q", Priority(9).String())
	}
}
