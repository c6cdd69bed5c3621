package org.apache.spark

/** Waits until the listener bus has delivered every posted event. Listener
  * events arrive asynchronously; tests that count them read after this.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
