let unused x = x + 1

let own_only x = x * 2

let used x = own_only x + 1

let tested x = x - 1

let kept x = x

let tested_kept x = x + 2
