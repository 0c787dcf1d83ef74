type t = { n : int }

let by_path t = t.n
let by_alias t = t.n + 1
let by_let_module t = t.n + 2
let by_open t = t.n + 3
let by_local_open t = t.n + 4

module Part = struct
  let by_submodule = 5
end
