package main

func main() {}

func Exported() {} // want `exported tool.Exported has no caller`
