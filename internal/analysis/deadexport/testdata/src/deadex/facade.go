// Package deadex is a fixture module's facade.
package deadex

func Shown() {} // an example calls it

func Tested() {} // only the facade's tests call it

func Lonely() {} // want `facade name deadex.Lonely is referenced nowhere`
