type emit = Item.t -> unit

type t = {
  on_tuple : input:int -> Value.t array -> emit:emit -> unit;
  on_batch_end : emit:emit -> unit;
  on_ctrl : input:int -> Item.t -> emit:emit -> unit;
  blocked_input : unit -> int option;
  buffered : unit -> int;
  reset : (unit -> unit) option;
}
